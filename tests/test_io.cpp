// Round-trip and error-path tests for data/io (CSV and LIBSVM).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/cache.hpp"
#include "data/io.hpp"
#include "data/synthetic.hpp"
#include "serialize/codec.hpp"
#include "util/rng.hpp"

namespace data = khss::data;

namespace {

// Unique scratch path inside gtest's per-run temp dir; removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_(testing::TempDir() + "khss_io_" + name) {}
  ~ScratchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

  void write(const std::string& contents) const {
    std::ofstream out(path_);
    out << contents;
  }

 private:
  std::string path_;
};

// CSV fixtures shared by the loader tests and the differential pin below.
// Awkward values: negatives, tiny magnitudes, and non-terminating binary
// fractions that expose insufficient output precision.
const char kRoundTripCsv[] =
    "# label, x0, x1, x2\n"
    "1,0.1,-2.5e-07,0.3333333333333333\n"
    "\n"
    "-1,1000000.25,0,-0.1\n"
    "1,-3,2.2250738585072014e-308,2\n";
const char kCrossCsv[] = "5,1.5,0,-2\n7,0,3.25,0\n";
const char kCapCsv[] =
    "0,1.5,2.5\n"
    "1,3.5,4.5\n"
    "2,5.5,6.5\n"
    "1,7.5,8.5\n";
const char kCachedCsv[] =
    "0,0.1,-2.5e-07\n"
    "1,0.3333333333333333,2.2250738585072014e-308\n"
    "0,-3,1000000.25\n";
const char kCorruptSidecarCsv[] = "0,1.5\n1,2.5\n";

// The bare matrix IoMatrixCsv round-trips through save_matrix_csv.
khss::la::Matrix awkward_matrix() {
  khss::la::Matrix m(3, 2);
  m(0, 0) = 0.1;
  m(0, 1) = -2.5e-07;
  m(1, 0) = 0.3333333333333333;
  m(1, 1) = 2.2250738585072014e-308;
  m(2, 0) = -1000000.25;
  m(2, 1) = 42.0;
  return m;
}

void expect_datasets_equal(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_EQ(a.num_classes, b.num_classes);
  EXPECT_EQ(a.labels, b.labels);
  for (int i = 0; i < a.n(); ++i) {
    for (int j = 0; j < a.dim(); ++j) {
      // precision(17) must make the text round trip bit-exact.
      EXPECT_EQ(a.points(i, j), b.points(i, j)) << "at (" << i << "," << j << ")";
    }
  }
}

}  // namespace

TEST(IoCsv, ReadWriteReadRoundTrip) {
  ScratchFile first("rt1.csv"), second("rt2.csv");
  first.write(kRoundTripCsv);
  data::Dataset loaded = data::load_csv(first.path());
  ASSERT_EQ(loaded.n(), 3);
  ASSERT_EQ(loaded.dim(), 3);
  EXPECT_EQ(loaded.num_classes, 2);
  // Labels {-1, +1} densify order-preservingly to {0, 1}.
  EXPECT_EQ(loaded.labels, (std::vector<int>{1, 0, 1}));

  data::save_csv(loaded, second.path());
  data::Dataset reloaded = data::load_csv(second.path());
  expect_datasets_equal(loaded, reloaded);
}

TEST(IoCsv, ErrorPaths) {
  EXPECT_THROW(data::load_csv(testing::TempDir() + "khss_io_nope.csv"),
               std::runtime_error);

  ScratchFile ragged("ragged.csv");
  ragged.write("1,2,3\n1,2\n");
  EXPECT_THROW(data::load_csv(ragged.path()), std::runtime_error);

  ScratchFile empty("empty.csv");
  empty.write("# only a comment\n");
  EXPECT_THROW(data::load_csv(empty.path()), std::runtime_error);

  ScratchFile one_col("one_col.csv");
  one_col.write("1\n2\n");
  EXPECT_THROW(data::load_csv(one_col.path()), std::runtime_error);
}

TEST(IoCsv, BadCellNamesFileAndLine) {
  ScratchFile bad("badcell.csv");
  bad.write("1,2,3\n2,oops,4\n");
  try {
    data::load_csv(bad.path());
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(bad.path()), std::string::npos) << msg;
    EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("oops"), std::string::npos) << msg;
  }
}

TEST(IoCsv, TrailingJunkCellRejected) {
  // std::stod alone parses the "2.5" prefix and silently drops ".3".
  ScratchFile bad("junkcell.csv");
  bad.write("1,2.5.3\n");
  EXPECT_THROW(data::load_csv(bad.path()), std::runtime_error);
}

TEST(IoCsv, OutOfRangeCellIsRuntimeError) {
  // Regression: this used to escape as bare std::out_of_range (which is a
  // logic_error, not a runtime_error) straight out of std::stod.
  ScratchFile bad("range.csv");
  bad.write("1,1e999\n");
  EXPECT_THROW(data::load_csv(bad.path()), std::runtime_error);
}

TEST(IoLibsvm, ReadWriteReadRoundTrip) {
  ScratchFile first("rt1.svm"), second("rt2.svm");
  // Sparse rows with gaps, an all-zero row, and multi-class labels.
  first.write(
      "# comment\n"
      "3 1:0.5 4:-1.25\n"
      "1\n"
      "2 2:0.3333333333333333 3:-2.5e-07\n"
      "3 1:7 2:-8.5 3:9 4:1e-300\n");
  data::Dataset loaded = data::load_libsvm(first.path());
  ASSERT_EQ(loaded.n(), 4);
  ASSERT_EQ(loaded.dim(), 4);
  EXPECT_EQ(loaded.num_classes, 3);
  EXPECT_EQ(loaded.labels, (std::vector<int>{2, 0, 1, 2}));
  EXPECT_EQ(loaded.points(0, 3), -1.25);
  EXPECT_EQ(loaded.points(1, 2), 0.0);  // all-zero row

  data::save_libsvm(loaded, second.path());
  // Pass dim explicitly: the writer omits zeros, so a trailing all-zero
  // column would otherwise shrink the reloaded dimension.
  data::Dataset reloaded = data::load_libsvm(second.path(), loaded.dim());
  expect_datasets_equal(loaded, reloaded);
}

TEST(IoLibsvm, ErrorPaths) {
  EXPECT_THROW(data::load_libsvm(testing::TempDir() + "khss_io_nope.svm"),
               std::runtime_error);

  ScratchFile bad_tok("badtok.svm");
  bad_tok.write("1 2-0.5\n");
  EXPECT_THROW(data::load_libsvm(bad_tok.path()), std::runtime_error);

  ScratchFile zero_idx("zeroidx.svm");
  zero_idx.write("1 0:0.5\n");
  EXPECT_THROW(data::load_libsvm(zero_idx.path()), std::runtime_error);
}

TEST(IoLibsvm, BadLabelThrowsInsteadOfSkipping) {
  // Regression: `if (!(ss >> label)) continue;` used to silently drop the
  // whole row — a 3-row file loaded as 2 rows with no diagnostic.
  ScratchFile bad("badlabel.svm");
  bad.write("1 1:0.5\nabc 1:0.25\n2 1:1.0\n");
  try {
    data::load_libsvm(bad.path());
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(":2:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("abc"), std::string::npos) << msg;
  }
}

TEST(IoLibsvm, DuplicateFeatureIndexRejected) {
  ScratchFile dup("dup.svm");
  dup.write("1 2:1.0 3:0.5 2:3.0\n");
  try {
    data::load_libsvm(dup.path());
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("duplicate"), std::string::npos) << msg;
    EXPECT_NE(msg.find(":1:"), std::string::npos) << msg;
  }
}

TEST(IoLibsvm, BadValueAndIndexAreRuntimeErrorsWithContext) {
  // Regression: both used to escape as bare std::invalid_argument /
  // std::out_of_range from std::stod / std::stoi.
  ScratchFile bad_val("badval.svm");
  bad_val.write("1 1:0.5\n3 2:xyz\n");
  try {
    data::load_libsvm(bad_val.path());
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos)
        << e.what();
  }

  ScratchFile big_idx("bigidx.svm");
  big_idx.write("1 99999999999999999999:1.0\n");
  EXPECT_THROW(data::load_libsvm(big_idx.path()), std::runtime_error);

  ScratchFile junk_val("junkval.svm");
  junk_val.write("1 1:2.5rats\n");
  EXPECT_THROW(data::load_libsvm(junk_val.path()), std::runtime_error);
}

TEST(IoCross, CsvAndLibsvmAgree) {
  ScratchFile csv("cross.csv"), svm("cross.svm");
  csv.write(kCrossCsv);
  data::Dataset from_csv = data::load_csv(csv.path());
  data::save_libsvm(from_csv, svm.path());
  data::Dataset from_svm = data::load_libsvm(svm.path(), from_csv.dim());
  expect_datasets_equal(from_csv, from_svm);
}

// ------------------------------------------------------- write-failure paths

namespace {

data::Dataset tiny_dataset() {
  data::Dataset d;
  d.name = "tiny";
  d.points = khss::la::Matrix(2, 2);
  d.points(0, 0) = 1.5;
  d.points(1, 1) = -2.25;
  d.labels = {0, 1};
  d.num_classes = 2;
  return d;
}

}  // namespace

TEST(IoWriteFailure, SaveCsvThrowsWithPathOnUnwritableTarget) {
  // Regression: the savers never checked the stream after writing, so a
  // failed write (here: the target directory does not exist; in production:
  // disk full) returned as success with a missing/truncated file.
  const std::string path =
      testing::TempDir() + "khss_io_no_such_dir/deep/out.csv";
  try {
    data::save_csv(tiny_dataset(), path);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(IoWriteFailure, SaveLibsvmThrowsWithPathOnUnwritableTarget) {
  const std::string path =
      testing::TempDir() + "khss_io_no_such_dir/deep/out.svm";
  try {
    data::save_libsvm(tiny_dataset(), path);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(IoWriteFailure, SaveCsvThrowsWhenTheDeviceRejectsData) {
  // /dev/full opens fine and fails on flush — exactly the deferred-error
  // shape the flush-then-check fix exists for.  Skip quietly on systems
  // without it.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  EXPECT_THROW(data::save_csv(tiny_dataset(), "/dev/full"),
               std::runtime_error);
  EXPECT_THROW(data::save_libsvm(tiny_dataset(), "/dev/full"),
               std::runtime_error);
  EXPECT_THROW(data::save_matrix_csv(tiny_dataset().points, "/dev/full"),
               std::runtime_error);
}

// ------------------------------------------------------------ matrix CSV

TEST(IoMatrixCsv, RoundTripsBitExactly) {
  ScratchFile file("matrix.csv");
  const khss::la::Matrix m = awkward_matrix();
  data::save_matrix_csv(m, file.path());
  khss::la::Matrix back = data::load_matrix_csv(file.path());
  ASSERT_EQ(back.rows(), 3);
  ASSERT_EQ(back.cols(), 2);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 2; ++j) {
      EXPECT_EQ(m(i, j), back(i, j)) << "at (" << i << "," << j << ")";
    }
  }
}

TEST(IoMatrixCsv, RejectsRaggedAndEmptyInput) {
  // Both refusals name the loader, not the row loop it shares with load_csv.
  const auto expect_refused = [](const std::string& path) {
    try {
      data::load_matrix_csv(path);
      ADD_FAILURE() << "load_matrix_csv accepted " << path;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("load_matrix_csv: ", 0), 0u)
          << e.what();
    }
  };
  ScratchFile ragged("ragged.csv");
  ragged.write("1,2,3\n4,5\n");
  expect_refused(ragged.path());

  ScratchFile empty("empty.csv");
  empty.write("# only a comment\n");
  expect_refused(empty.path());

  EXPECT_THROW(data::load_matrix_csv(testing::TempDir() + "khss_io_missing"),
               std::runtime_error);
}

// ------------------------------------------------------------- max_rows cap

TEST(IoCsv, MaxRowsCapsTheLoad) {
  ScratchFile f("cap.csv");
  f.write(kCapCsv);
  data::Dataset all = data::load_csv(f.path());
  ASSERT_EQ(all.n(), 4);
  EXPECT_EQ(all.num_classes, 3);

  data::Dataset head = data::load_csv(f.path(), ',', 2);
  ASSERT_EQ(head.n(), 2);
  ASSERT_EQ(head.dim(), 2);
  // The cap keeps the FIRST max_rows data rows, values bit-identical.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(head.labels[i], all.labels[i]);
    for (int j = 0; j < 2; ++j) EXPECT_EQ(head.points(i, j), all.points(i, j));
  }
  // A cap above the row count is a no-op.
  expect_datasets_equal(data::load_csv(f.path(), ',', 100), all);
}

TEST(IoLibsvm, MaxRowsCapsTheLoad) {
  ScratchFile f("cap.libsvm");
  f.write(
      "0 1:0.5 3:1.25\n"
      "1 2:-2.0\n"
      "0 1:4.0 2:8.0 3:16.0\n");
  data::Dataset all = data::load_libsvm(f.path());
  ASSERT_EQ(all.n(), 3);
  ASSERT_EQ(all.dim(), 3);

  data::Dataset head = data::load_libsvm(f.path(), /*dim=*/3, /*max_rows=*/1);
  ASSERT_EQ(head.n(), 1);
  ASSERT_EQ(head.dim(), 3);
  EXPECT_EQ(head.points(0, 0), 0.5);
  EXPECT_EQ(head.points(0, 2), 1.25);
  // Without an explicit dim, a cap that cuts off the widest row legitimately
  // narrows the inferred dimension — the cap reads only what it keeps.
  data::Dataset narrow = data::load_libsvm(f.path(), 0, 2);
  ASSERT_EQ(narrow.n(), 2);
  EXPECT_EQ(narrow.dim(), 3);  // row 0 already reaches index 3
}

// --------------------------------------------------- .khds cached loaders

TEST(IoCached, CsvSidecarIsWrittenReusedAndBitExact) {
  ScratchFile f("cached.csv");
  ScratchFile side("cached.csv.khds");  // cleanup via the same scratch dir
  f.write(kCachedCsv);
  data::Dataset text = data::load_csv(f.path());

  // First load parses the text and writes the sidecar...
  data::Dataset first = data::load_csv_cached(f.path());
  expect_datasets_equal(first, text);
  std::ifstream probe(f.path() + data::kDatasetCacheExt, std::ios::binary);
  EXPECT_TRUE(probe.good()) << "sidecar was not written";

  // ...the second load comes from the binary sidecar, still bit-exact.
  data::Dataset second = data::load_csv_cached(f.path());
  expect_datasets_equal(second, text);
}

TEST(IoCached, CorruptSidecarThrowsInsteadOfSilentlyReparsing) {
  ScratchFile f("corrupt.csv");
  ScratchFile side("corrupt.csv.khds");
  f.write(kCorruptSidecarCsv);
  (void)data::load_csv_cached(f.path());  // writes the sidecar

  // Flip a payload byte; the sidecar is still "fresh", so the cached load
  // must surface the corruption loudly rather than fall back.
  const std::string spath = f.path() + data::kDatasetCacheExt;
  std::string bytes;
  {
    std::ifstream in(spath, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);
  bytes[bytes.size() - 9] ^= 0x20;
  {
    std::ofstream out(spath, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW((void)data::load_csv_cached(f.path()),
               khss::serialize::SerializeError);
}

TEST(IoCached, LibsvmSidecarRoundTrips) {
  ScratchFile f("cached.libsvm");
  ScratchFile side("cached.libsvm.khds");
  f.write(
      "0 1:0.5 3:1.25\n"
      "1 2:-2.0\n");
  data::Dataset text = data::load_libsvm(f.path());
  expect_datasets_equal(data::load_libsvm_cached(f.path()), text);  // writes
  expect_datasets_equal(data::load_libsvm_cached(f.path()), text);  // reads
}

// ------------------------------------------------- non-regular input files

TEST(IoCsv, DirectoryPathIsRefused) {
  const std::string dir = testing::TempDir();
  EXPECT_THROW(data::load_csv(dir), std::runtime_error);
  EXPECT_THROW(data::load_matrix_csv(dir), std::runtime_error);
  EXPECT_THROW(data::load_libsvm(dir), std::runtime_error);
}

// ------------------------------------------- cell parser differential pin
//
// The loaders take a cell's value from std::from_chars only where it agrees
// with strtod; everything else goes to strtod.  These tests hold them to a
// copy of the strtod-only cell parser: the same bits, or a refusal with the
// same message.

namespace {

struct ReferenceCell {
  bool ok = false;
  double value = 0.0;
  std::string error;  // the loader's message after "<path>:<line>: "
};

ReferenceCell reference_cell(const std::string& token) {
  ReferenceCell r;
  const char* begin = token.c_str();
  const char* end = begin + token.size();
  errno = 0;
  char* stop = nullptr;
  const double v = std::strtod(begin, &stop);
  const bool out_of_range = errno == ERANGE;
  const bool parsed = stop != begin;
  while (parsed && stop < end &&
         std::isspace(static_cast<unsigned char>(*stop))) {
    ++stop;
  }
  if (!parsed || stop != end) {
    r.error = "bad CSV cell '" + token + "'";
  } else if (out_of_range) {
    r.error = "bad CSV cell (out of range) '" + token + "'";
  } else {
    r.ok = true;
    r.value = v;
  }
  return r;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// The data rows of a valid CSV text, split as the loaders split them ('#'
// and empty lines and empty cells skipped) and parsed by reference_cell.
std::vector<std::vector<double>> reference_rows(const std::string& text) {
  std::vector<std::vector<double>> rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<double> row;
    std::size_t at = 0;
    while (at <= line.size()) {
      const std::size_t next = std::min(line.find(',', at), line.size());
      if (next != at) {
        const ReferenceCell c = reference_cell(line.substr(at, next - at));
        EXPECT_TRUE(c.ok) << c.error;
        row.push_back(c.value);
      }
      at = next + 1;
    }
    if (!row.empty()) rows.push_back(row);
  }
  return rows;
}

// load_matrix_csv must reproduce every reference cell bit for bit, and
// load_csv every feature and (densified) label.
void expect_loaders_match_reference(const std::string& text,
                                    const std::string& name) {
  SCOPED_TRACE(name);
  ScratchFile f("ref_" + name + ".csv");
  f.write(text);
  const std::vector<std::vector<double>> rows = reference_rows(text);
  ASSERT_FALSE(rows.empty());
  const std::size_t width = rows.front().size();

  const khss::la::Matrix m = data::load_matrix_csv(f.path());
  ASSERT_EQ(static_cast<std::size_t>(m.rows()), rows.size());
  ASSERT_EQ(static_cast<std::size_t>(m.cols()), width);
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      EXPECT_TRUE(same_bits(m(i, j), rows[i][j]))
          << "at (" << i << "," << j << ")";
    }
  }

  if (width < 2) return;
  const data::Dataset d = data::load_csv(f.path());
  std::vector<double> classes;
  for (const auto& row : rows) classes.push_back(row[0]);
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  ASSERT_EQ(static_cast<std::size_t>(d.n()), rows.size());
  ASSERT_EQ(static_cast<std::size_t>(d.dim()), width - 1);
  EXPECT_EQ(static_cast<std::size_t>(d.num_classes), classes.size());
  for (int i = 0; i < d.n(); ++i) {
    const auto cls =
        std::lower_bound(classes.begin(), classes.end(), rows[i][0]);
    EXPECT_EQ(d.labels[i], cls - classes.begin()) << "row " << i;
    for (int j = 0; j < d.dim(); ++j) {
      EXPECT_TRUE(same_bits(d.points(i, j), rows[i][j + 1]))
          << "at (" << i << "," << j << ")";
    }
  }
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

TEST(IoCellParser, EdgeTokensMatchTheStrtodReference) {
  // Cells where std::from_chars and strtod differ (a leading sign or
  // space, hex, NaN payloads, subnormals, a value that rounds up to
  // DBL_MIN), infinities, out-of-range magnitudes, plain values and
  // malformed cells.
  const char* const tokens[] = {
      "1.5", "+1.5", " 2.5", "2.5 ", "0x1p3", "inf", "-Infinity", "nan",
      "nan(123)", "1e999", "-1e999", "1e-400", "1e-310", "4.9e-324",
      "2.2250738585072012e-308", "2.2250738585072014e-308", "0e99999", "-0",
      ".5", "5.", "1e", "e5", "1_0", "2.5.3"};
  ScratchFile f("cell.csv");
  for (const std::string token : tokens) {
    SCOPED_TRACE("token '" + token + "'");
    f.write("1," + token + "\n");
    const ReferenceCell ref = reference_cell(token);
    try {
      const data::Dataset d = data::load_csv(f.path());
      ASSERT_TRUE(ref.ok) << "load_csv accepted it; the reference refuses: "
                          << ref.error;
      ASSERT_EQ(d.n(), 1);
      ASSERT_EQ(d.dim(), 1);
      EXPECT_TRUE(same_bits(d.points(0, 0), ref.value))
          << d.points(0, 0) << " vs " << ref.value;
    } catch (const std::runtime_error& e) {
      EXPECT_FALSE(ref.ok) << "load_csv refused it: " << e.what();
      EXPECT_EQ(std::string(e.what()), f.path() + ":1: " + ref.error);
    }
    try {
      const khss::la::Matrix m = data::load_matrix_csv(f.path());
      ASSERT_TRUE(ref.ok) << "load_matrix_csv accepted it";
      ASSERT_EQ(m.cols(), 2);
      EXPECT_TRUE(same_bits(m(0, 1), ref.value));
    } catch (const std::runtime_error& e) {
      EXPECT_FALSE(ref.ok) << "load_matrix_csv refused it: " << e.what();
      EXPECT_EQ(std::string(e.what()), f.path() + ":1: " + ref.error);
    }
  }
}

TEST(IoCellParser, EveryCsvFixtureMatchesTheStrtodReference) {
  expect_loaders_match_reference(kRoundTripCsv, "roundtrip");
  expect_loaders_match_reference(kCrossCsv, "cross");
  expect_loaders_match_reference(kCapCsv, "cap");
  expect_loaders_match_reference(kCachedCsv, "cached");
  expect_loaders_match_reference(kCorruptSidecarCsv, "corrupt_sidecar");

  // The files the savers write in the round-trip tests: the reloaded
  // round-trip fixture, IoMatrixCsv's matrix and test_dataset's blobs.
  ScratchFile first("ref_rt1.csv"), saved("ref_saved.csv");
  first.write(kRoundTripCsv);
  data::save_csv(data::load_csv(first.path()), saved.path());
  expect_loaders_match_reference(read_text(saved.path()), "saved_roundtrip");

  data::save_matrix_csv(awkward_matrix(), saved.path());
  expect_loaders_match_reference(read_text(saved.path()), "saved_matrix");

  khss::util::Rng rng(8);
  data::BlobSpec spec;
  spec.n = 50;
  spec.dim = 3;
  spec.num_classes = 4;
  data::save_csv(data::make_blobs(spec, rng), saved.path());
  expect_loaders_match_reference(read_text(saved.path()), "saved_blobs");
}
