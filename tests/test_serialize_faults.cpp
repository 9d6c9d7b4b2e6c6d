// Fault injection for the model loader: every way a .khss container can be
// damaged — truncation, bit flips, version skew, a section table pointing
// off the end of the file, a solver section spliced in from a different
// backend — must produce a thrown serialize::SerializeError whose message
// names the file and the offending structure.  Never a crash, never a
// silent success, never a half-loaded model (the loader throws before any
// LoadedModel exists).  The suite runs under the CI ASan job, so an
// out-of-bounds read on any of these inputs fails loudly there too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "data/cache.hpp"
#include "data/synthetic.hpp"
#include "krr/krr.hpp"
#include "serialize/container.hpp"
#include "serialize/model_io.hpp"
#include "solver/solver.hpp"
#include "util/rng.hpp"

namespace data = khss::data;
namespace krr = khss::krr;
namespace la = khss::la;
namespace serialize = khss::serialize;
namespace solver = khss::solver;
namespace util = khss::util;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out) << path;
}

/// Pristine fitted models saved once for the whole suite; each test mutates
/// a copy of the bytes.
class SerializeFaults : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng(11);
    data::BlobSpec spec;
    spec.n = 48;
    spec.dim = 3;
    spec.num_classes = 2;
    data::Dataset ds = data::make_blobs(spec, rng);

    hss_bytes_ = new std::string(
        save_bytes(solver::SolverBackend::kHSSDirect, ds));
    dense_bytes_ = new std::string(
        save_bytes(solver::SolverBackend::kDenseExact, ds));
  }

  static void TearDownTestSuite() {
    delete hss_bytes_;
    delete dense_bytes_;
    hss_bytes_ = nullptr;
    dense_bytes_ = nullptr;
  }

  static std::string save_bytes(solver::SolverBackend backend,
                                const data::Dataset& ds) {
    krr::KRROptions opts;
    opts.backend = backend;
    opts.kernel.h = 1.2;
    opts.lambda = 1.0;
    opts.seed = 5;
    krr::OneVsAllKRR clf(opts);
    clf.fit(ds.points, ds.labels, ds.num_classes);
    const std::string path = testing::TempDir() + "khss_fault_pristine";
    serialize::save_model(path, clf);
    std::string bytes = read_file(path);
    std::remove(path.c_str());
    return bytes;
  }

  /// Write `bytes` to a scratch file and expect load_model to throw a
  /// SerializeError whose message contains `needle` (and the path, proving
  /// the error is contextualized).
  static void expect_load_error(const std::string& bytes,
                                const std::string& needle) {
    static int counter = 0;
    const std::string path =
        testing::TempDir() + "khss_fault_" + std::to_string(counter++);
    write_file(path, bytes);
    try {
      serialize::load_model(path);
      ADD_FAILURE() << "load_model accepted a damaged file (wanted error "
                       "containing '"
                    << needle << "')";
    } catch (const serialize::SerializeError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos)
          << "error does not mention '" << needle << "': " << what;
      EXPECT_NE(what.find(path), std::string::npos)
          << "error does not name the file: " << what;
    }
    std::remove(path.c_str());
  }

  static const std::string& hss() { return *hss_bytes_; }
  static const std::string& dense() { return *dense_bytes_; }

 private:
  static std::string* hss_bytes_;
  static std::string* dense_bytes_;
};

std::string* SerializeFaults::hss_bytes_ = nullptr;
std::string* SerializeFaults::dense_bytes_ = nullptr;

}  // namespace

// --------------------------------------------------------------- sanity

TEST_F(SerializeFaults, PristineBytesLoad) {
  const std::string path = testing::TempDir() + "khss_fault_ok";
  write_file(path, hss());
  EXPECT_NO_THROW({
    serialize::LoadedModel loaded = serialize::load_model(path);
    EXPECT_EQ(loaded.model.options().backend,
              solver::SolverBackend::kHSSDirect);
  });
  std::remove(path.c_str());
}

// ----------------------------------------------------------- truncation

TEST_F(SerializeFaults, TruncationAtEveryLayerFailsLoudly) {
  const std::string& good = hss();
  // Mid-magic, mid-header, mid-payload, one byte short: every prefix of the
  // file must be rejected (the header's declared total size catches the
  // cases the fixed-size header check does not).
  const std::vector<std::size_t> cuts = {
      0, 4, serialize::kHeaderBytes - 1, serialize::kHeaderBytes + 9,
      good.size() / 2, good.size() - 1};
  for (std::size_t cut : cuts) {
    SCOPED_TRACE("truncated to " + std::to_string(cut) + " bytes");
    expect_load_error(good.substr(0, cut),
                      cut < serialize::kHeaderBytes ? "not a khss model"
                                                    : "truncated");
  }
}

TEST_F(SerializeFaults, TrailingGarbageIsRejected) {
  // A file longer than its header declares is as suspect as a short one.
  expect_load_error(hss() + std::string(16, '\xab'), "truncated or padded");
}

// ------------------------------------------------------------ corruption

TEST_F(SerializeFaults, FlippedPayloadByteFailsTheSectionChecksum) {
  std::string bad = hss();
  // First section payload starts right after the header ("meta").
  bad[serialize::kHeaderBytes + 2] ^= 0x40;
  expect_load_error(bad, "checksum mismatch");
}

TEST_F(SerializeFaults, FlippedTableByteFailsTheTableChecksum) {
  std::string bad = hss();
  bad[bad.size() - 3] ^= 0x01;  // inside the section table (file tail)
  expect_load_error(bad, "checksum mismatch");
}

TEST_F(SerializeFaults, BadMagicIsNotAContainer) {
  std::string bad = hss();
  bad.replace(0, 8, "NOTMODEL");
  expect_load_error(bad, "not a khss model container");
}

TEST_F(SerializeFaults, EmptyFileIsNotAContainer) {
  expect_load_error("", "not a khss model");
}

// ---------------------------------------------------------- version skew

TEST_F(SerializeFaults, UnknownContainerVersionIsRefused) {
  std::string bad = hss();
  bad[8] = 0x63;  // container version u32 at offset 8 -> 99
  expect_load_error(bad, "unknown container format version 99");
}

TEST_F(SerializeFaults, UnknownModelSchemaVersionIsRefused) {
  // Rebuild the container with the meta section's leading u32 schema bumped
  // to 999; CRCs and the table stay consistent, so the failure comes from
  // read_meta, not the envelope.
  serialize::ContainerReader good(hss(), "pristine");
  serialize::ContainerWriter writer;
  for (const std::string& name : good.section_names()) {
    std::string payload(good.section(name));
    if (name == "meta") {
      serialize::ByteWriter patched;
      patched.u32(999);
      payload = patched.take() + payload.substr(4);
    }
    writer.add_section(name, std::move(payload));
  }
  expect_load_error(writer.serialize(), "unsupported model schema version 999");
}

// ------------------------------------------- schema v2: kernel spec layout

namespace {

std::uint32_t meta_u32_at(const std::string& payload, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(payload[pos + i]))
         << (8 * i);
  }
  return v;
}

/// Byte offset of the serialized kernel node inside the meta payload: the
/// payload opens with the u32 schema and two length-prefixed strings
/// (backend, ordering), then the kernel tree.
std::size_t kernel_node_offset(const std::string& meta) {
  std::size_t pos = 4;
  pos += 4 + meta_u32_at(meta, pos);  // backend name
  pos += 4 + meta_u32_at(meta, pos);  // ordering name
  return pos;
}

/// Rebuild the container with a mutated meta payload; every CRC and table
/// entry stays consistent, so the mutation under test is what fires.
std::string with_patched_meta(const std::string& bytes,
                              const std::function<void(std::string&)>& mutate) {
  serialize::ContainerReader good(bytes, "pristine");
  serialize::ContainerWriter writer;
  for (const std::string& name : good.section_names()) {
    std::string payload(good.section(name));
    if (name == "meta") mutate(payload);
    writer.add_section(name, std::move(payload));
  }
  return writer.serialize();
}

}  // namespace

TEST_F(SerializeFaults, SchemaV1IsRefusedWithAMigrationHint) {
  // Version 1 predates the serialized kernel tree; the loader must refuse it
  // BY NAME and tell the operator what to do, not misparse the old layout.
  expect_load_error(with_patched_meta(hss(),
                                      [](std::string& meta) {
                                        meta[0] = 1;
                                        meta[1] = 0;
                                        meta[2] = 0;
                                        meta[3] = 0;
                                      }),
                    "predates the kernel-zoo");
}

TEST_F(SerializeFaults, SchemaV2IsRefusedWithAMigrationHint) {
  // Version 2 stored each HSS node's V, B10 and Jcol beside U, B01 and
  // Jrow; version 3 stores the symmetric generator set only.  A v2 state
  // section would misparse, so the loader refuses it by name.
  expect_load_error(with_patched_meta(hss(),
                                      [](std::string& meta) {
                                        meta[0] = 2;
                                        meta[1] = 0;
                                        meta[2] = 0;
                                        meta[3] = 0;
                                      }),
                    "predates the symmetric HSS node layout");
}

TEST_F(SerializeFaults, UnknownKernelTypeTagIsRefused) {
  // A family tag this build has never heard of (e.g. from a newer writer)
  // must be named in the error, never silently mapped onto a known family.
  expect_load_error(
      with_patched_meta(hss(),
                        [](std::string& meta) {
                          meta[kernel_node_offset(meta)] =
                              static_cast<char>(0xEE);
                        }),
      "unknown kernel type tag 238");
}

TEST_F(SerializeFaults, KernelChildCountPastSectionEndIsRefused) {
  // The pristine Gaussian atom declares 0 children; lie and claim ~16M.  The
  // reader must refuse from remaining-bytes accounting instead of recursing
  // into bytes that do not exist.  (Node layout: u8 type, f64 h, i32 degree,
  // f64 coef0, f64 weight = 29 bytes, then the u32 child count.)
  expect_load_error(with_patched_meta(hss(),
                                      [](std::string& meta) {
                                        const std::size_t pos =
                                            kernel_node_offset(meta) + 29;
                                        meta[pos] = '\xff';
                                        meta[pos + 1] = '\xff';
                                        meta[pos + 2] = '\xff';
                                        meta[pos + 3] = '\x00';
                                      }),
                    "children but only");
}

TEST_F(SerializeFaults, AtomSmugglingCompositeTermsIsRefused) {
  // Byte-wise well-formed but semantically contradictory: a Gaussian ATOM
  // carrying one (valid) child node.  Every CRC passes; the kernel
  // validator, not the envelope, must refuse it.
  expect_load_error(
      with_patched_meta(hss(),
                        [](std::string& meta) {
                          const std::size_t node = kernel_node_offset(meta);
                          const std::string child = meta.substr(node, 33);
                          meta[node + 29] = 1;  // child count 0 -> 1
                          meta.insert(node + 33, child);
                        }),
      "must not carry composite terms");
}

// --------------------------------------------------- structural attacks

TEST_F(SerializeFaults, TableOffsetPastEOFIsRejected) {
  std::string bad = hss();
  // Header u64 at offset 16: section table offset.  Point it past the end
  // (keeping the declared size untouched).
  const std::uint64_t evil = bad.size() + 100;
  for (int i = 0; i < 8; ++i) {
    bad[16 + i] = static_cast<char>((evil >> (8 * i)) & 0xff);
  }
  expect_load_error(bad, "outside the file");
}

TEST_F(SerializeFaults, SectionEntryPastEOFIsRejected) {
  // Rebuild with a table entry whose offset/size point past EOF.  The
  // container API cannot express this, so forge the table by hand: take a
  // pristine file and rewrite its ONE weights entry offset.  Easier and
  // just as strict: build a tiny container whose section table lies.
  serialize::ContainerWriter writer;
  writer.add_section("meta", std::string(24, 'x'));
  std::string bytes = writer.serialize();

  // The table starts at the offset stored in the header (u64 at 16).
  std::uint64_t table_offset = 0;
  for (int i = 0; i < 8; ++i) {
    table_offset |= static_cast<std::uint64_t>(
                        static_cast<unsigned char>(bytes[16 + i]))
                    << (8 * i);
  }
  // Table entry layout: u32 name length, name bytes, u64 offset, ...
  const std::size_t entry_offset_pos = table_offset + 4 + 4;  // "meta"
  const std::uint64_t evil = bytes.size() * 2;
  for (int i = 0; i < 8; ++i) {
    bytes[entry_offset_pos + i] = static_cast<char>((evil >> (8 * i)) & 0xff);
  }
  // Recompute the table CRC so the envelope is self-consistent and the
  // check under test (bounds, not checksum) is the one that fires.
  const std::uint64_t crc =
      serialize::crc64(std::string_view(bytes).substr(table_offset));
  for (int i = 0; i < 8; ++i) {
    bytes[32 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  expect_load_error(bytes, "points outside the file");
}

TEST_F(SerializeFaults, MissingSectionIsNamed) {
  serialize::ContainerReader good(hss(), "pristine");
  serialize::ContainerWriter writer;
  for (const std::string& name : good.section_names()) {
    if (name == "weights") continue;
    writer.add_section(name, std::string(good.section(name)));
  }
  expect_load_error(writer.serialize(), "missing section 'weights'");
}

// ------------------------------------------------- wrong-backend artifact

TEST_F(SerializeFaults, WrongBackendSolverStateIsRefused) {
  // Franken-file: an hss-direct model whose "solver" section was spliced in
  // from a dense-backend save of the same data.  The meta says hss-direct,
  // the solver state's leading tag says dense — the loader must refuse with
  // both names in the message, not half-load or misinterpret the bytes.
  serialize::ContainerReader a(hss(), "pristine-hss");
  serialize::ContainerReader b(dense(), "pristine-dense");
  serialize::ContainerWriter writer;
  for (const std::string& name : a.section_names()) {
    writer.add_section(name, std::string(name == "solver"
                                             ? b.section(name)
                                             : a.section(name)));
  }
  expect_load_error(writer.serialize(), "wrong-backend artifact");
}

TEST_F(SerializeFaults, CrossModelWeightsShapeIsRefused) {
  // Splice in a weights matrix with the wrong row count; the cross-section
  // shape check must catch it before any predictor is built.
  serialize::ContainerReader good(hss(), "pristine");
  serialize::ContainerWriter writer;
  for (const std::string& name : good.section_names()) {
    if (name == "weights") {
      serialize::ByteWriter w;
      w.matrix(la::Matrix(7, 2));
      writer.add_section(name, w.take());
    } else {
      writer.add_section(name, std::string(good.section(name)));
    }
  }
  expect_load_error(writer.serialize(), "weight matrix is 7 x 2");
}

TEST_F(SerializeFaults, GarbageSolverPayloadNeverEscapesTheReader) {
  // Replace the solver state with random bytes (CRC made consistent by
  // re-serializing).  Whatever the reader trips over — tag string length,
  // matrix dims, allocation guard — it must throw SerializeError, not
  // crash or allocate absurdly.
  util::Rng rng(3);
  std::string garbage(256, '\0');
  for (char& c : garbage) {
    c = static_cast<char>(static_cast<int>(rng.uniform() * 255.0));
  }
  serialize::ContainerReader good(hss(), "pristine");
  serialize::ContainerWriter writer;
  for (const std::string& name : good.section_names()) {
    writer.add_section(name, std::string(name == "solver"
                                             ? std::string_view(garbage)
                                             : good.section(name)));
  }
  expect_load_error(writer.serialize(), "section 'solver'");
}

// ===========================================================================
// Dataset cache (.khds): same container envelope, same fault discipline.
// ===========================================================================

namespace {

data::Dataset cache_dataset() {
  util::Rng rng(29);
  data::BlobSpec spec;
  spec.n = 37;  // odd: exercises alignment padding in the points section
  spec.dim = 5;
  spec.num_classes = 3;
  data::Dataset ds = data::make_blobs(spec, rng);
  ds.name = "cache-faults";
  return ds;
}

/// Save the pristine dataset, apply `mutate` to the raw bytes, and expect
/// load_dataset to throw a SerializeError naming the file and `needle`.
void expect_dataset_fault(const std::string& tag,
                          const std::function<void(std::string&)>& mutate,
                          const std::string& needle) {
  const std::string path = testing::TempDir() + "khss_fault_ds_" + tag;
  data::save_dataset(cache_dataset(), path);
  std::string bytes = read_file(path);
  mutate(bytes);
  write_file(path, bytes);
  try {
    (void)data::load_dataset(path);
    ADD_FAILURE() << "load_dataset accepted damaged bytes (wanted '" << needle
                  << "')";
  } catch (const serialize::SerializeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(needle), std::string::npos)
        << "error does not mention '" << needle << "': " << what;
    EXPECT_NE(what.find(path), std::string::npos)
        << "error does not name the file: " << what;
  }
  std::remove(path.c_str());
}

}  // namespace

TEST(DatasetCacheFaults, RoundTripIsBitExact) {
  const data::Dataset ds = cache_dataset();
  const std::string path = testing::TempDir() + "khss_fault_ds_rt";
  data::save_dataset(ds, path);
  const data::Dataset back = data::load_dataset(path);
  EXPECT_EQ(back.name, ds.name);
  EXPECT_EQ(back.num_classes, ds.num_classes);
  EXPECT_EQ(back.labels, ds.labels);
  ASSERT_EQ(back.n(), ds.n());
  ASSERT_EQ(back.dim(), ds.dim());
  for (int i = 0; i < ds.n(); ++i) {
    for (int j = 0; j < ds.dim(); ++j) {
      // Raw IEEE-754 bytes: equality must be exact, not approximate.
      EXPECT_EQ(back.points(i, j), ds.points(i, j));
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetCacheFaults, MaxRowsKeepsALeadingSlice) {
  const data::Dataset ds = cache_dataset();
  const std::string path = testing::TempDir() + "khss_fault_ds_cap";
  data::save_dataset(ds, path);
  const data::Dataset head = data::load_dataset(path, 10);
  ASSERT_EQ(head.n(), 10);
  ASSERT_EQ(head.dim(), ds.dim());
  EXPECT_EQ(head.num_classes, ds.num_classes);  // declared, not re-densified
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(head.labels[i], ds.labels[i]);
    for (int j = 0; j < ds.dim(); ++j) {
      EXPECT_EQ(head.points(i, j), ds.points(i, j));
    }
  }
  std::remove(path.c_str());
}

TEST(DatasetCacheFaults, TruncationFailsLoudly) {
  for (double frac : {0.25, 0.5, 0.9}) {
    expect_dataset_fault(
        "trunc",
        [frac](std::string& b) {
          b.resize(static_cast<std::size_t>(b.size() * frac));
        },
        "");  // layer-dependent message; file name + throw are the contract
  }
}

TEST(DatasetCacheFaults, FlippedPointsByteFailsTheChecksum) {
  expect_dataset_fault(
      "flip", [](std::string& b) { b[b.size() - 9] ^= 0x10; }, "checksum");
}

TEST(DatasetCacheFaults, BadMagicIsNotAContainer) {
  expect_dataset_fault(
      "magic", [](std::string& b) { b[0] = 'X'; }, "magic");
}

TEST(DatasetCacheFaults, SchemaVersionSkewIsRefusedByName) {
  // The dsmeta payload starts right after the 40-byte container header with
  // the u32 schema version; bump it and the loader must refuse with the
  // version it saw.  (A u32 edit also breaks the section CRC, so rebuild
  // the file through a writer instead of patching bytes.)
  const std::string path = testing::TempDir() + "khss_fault_ds_schema";
  {
    serialize::ContainerWriter w;
    serialize::ByteWriter meta;
    meta.u32(99);  // unknown schema
    meta.str("skew");
    meta.i32(2);
    meta.i32(1);
    meta.i32(1);
    w.add_section("dsmeta", std::move(meta));
    serialize::ByteWriter labels;
    labels.vec_i32({0});
    w.add_section("labels", std::move(labels));
    serialize::ByteWriter points;
    points.matrix(la::Matrix(1, 1));
    w.add_section("points", std::move(points));
    w.finish(path);
  }
  try {
    (void)data::load_dataset(path);
    ADD_FAILURE() << "schema 99 was accepted";
  } catch (const serialize::SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("schema version 99"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(DatasetCacheFaults, ShapeContradictionsAreRefused) {
  // Metadata says 37 rows; a labels section with fewer entries must be
  // caught by the cross-check even though every CRC is intact.
  const std::string path = testing::TempDir() + "khss_fault_ds_shape";
  const data::Dataset ds = cache_dataset();
  {
    serialize::ContainerWriter w;
    serialize::ByteWriter meta;
    meta.u32(1);
    meta.str(ds.name);
    meta.i32(ds.num_classes);
    meta.i32(ds.n());
    meta.i32(ds.dim());
    w.add_section("dsmeta", std::move(meta));
    serialize::ByteWriter labels;
    labels.vec_i32({0, 1});  // 2 labels for 37 rows
    w.add_section("labels", std::move(labels));
    serialize::ByteWriter points;
    points.matrix(ds.points);
    w.add_section("points", std::move(points));
    w.finish(path);
  }
  try {
    (void)data::load_dataset(path);
    ADD_FAILURE() << "label/row mismatch was accepted";
  } catch (const serialize::SerializeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("labels section has 2"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(DatasetCacheFaults, OutOfRangeLabelIsRefused) {
  const std::string path = testing::TempDir() + "khss_fault_ds_label";
  data::Dataset ds = cache_dataset();
  ds.labels[5] = ds.num_classes;  // one past the declared class count
  data::save_dataset(ds, path);
  try {
    (void)data::load_dataset(path);
    ADD_FAILURE() << "out-of-range label was accepted";
  } catch (const serialize::SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("label"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------ non-regular files

TEST(NonRegularFiles, DirectoryIsRefusedByTheContainerLoaders) {
  // A directory opens for reading but has no bytes to read; both loaders
  // must refuse it with a SerializeError naming the path.
  const std::string dir = testing::TempDir();
  const auto expect_refused = [&](const char* who, const auto& load) {
    try {
      load();
      ADD_FAILURE() << who << " accepted directory " << dir;
    } catch (const serialize::SerializeError& e) {
      EXPECT_NE(std::string(e.what()).find(dir), std::string::npos)
          << e.what();
    }
  };
  expect_refused("load_model", [&] { (void)serialize::load_model(dir); });
  expect_refused("load_dataset", [&] { (void)data::load_dataset(dir); });
}

// ------------------------------------------------------------- CRC-64 pin

namespace {

// The per-byte table CRC-64/XZ every container so far was written with.
std::uint64_t reference_crc64(std::string_view data) {
  std::uint64_t table[256];
  for (std::uint64_t i = 0; i < 256; ++i) {
    std::uint64_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xC96C5795D7870F42ULL : crc >> 1;
    }
    table[i] = crc;
  }
  std::uint64_t crc = ~std::uint64_t{0};
  for (const char c : data) {
    crc = table[(crc ^ static_cast<unsigned char>(c)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace

TEST(Crc64, MatchesThePerByteReferenceAtEveryLengthAndOffset) {
  // The published CRC-64/XZ check value.
  EXPECT_EQ(serialize::crc64("123456789"), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(reference_crc64("123456789"), 0x995DC9BBDF1939FAULL);

  util::Rng rng(41);
  std::string buf(std::size_t{1} << 20, '\0');
  for (char& c : buf) c = static_cast<char>(rng.next() & 0xff);
  const std::string_view all(buf);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view part = all.substr(offset, len);
      EXPECT_EQ(serialize::crc64(part), reference_crc64(part))
          << "offset " << offset << ", length " << len;
    }
  }
  EXPECT_EQ(serialize::crc64(all), reference_crc64(all));
}
