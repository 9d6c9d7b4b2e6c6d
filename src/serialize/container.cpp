#include "serialize/container.hpp"

#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace khss::serialize {

namespace {

// Reflected CRC-64/XZ (ECMA-182 polynomial) by slicing-by-8 (Kounavis &
// Berry, ISCC 2005).  tables[0] is the classic per-byte table; tables[k][b]
// is the CRC of byte b followed by k zero bytes, so one step folds eight
// message bytes with eight independent lookups instead of eight dependent
// ones.
using Crc64Tables = std::array<std::array<std::uint64_t, 256>, 8>;

const Crc64Tables& crc64_tables() {
  static const Crc64Tables tables = [] {
    Crc64Tables t{};
    constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ULL;  // reflected
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint64_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  return tables;
}

std::uint64_t padded(std::uint64_t offset) {
  return (offset + 7) & ~std::uint64_t{7};
}

}  // namespace

std::uint64_t crc64(std::string_view data) {
  const Crc64Tables& t = crc64_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint64_t crc = ~std::uint64_t{0};
  for (; n >= 8; p += 8, n -= 8) {
    // The eight bytes as a little-endian word, whatever the host's order
    // (compilers turn this into one load on little-endian hosts).
    std::uint64_t word = 0;
    for (int i = 0; i < 8; ++i) word |= std::uint64_t{p[i]} << (8 * i);
    crc ^= word;
    crc = t[7][crc & 0xff] ^ t[6][(crc >> 8) & 0xff] ^
          t[5][(crc >> 16) & 0xff] ^ t[4][(crc >> 24) & 0xff] ^
          t[3][(crc >> 32) & 0xff] ^ t[2][(crc >> 40) & 0xff] ^
          t[1][(crc >> 48) & 0xff] ^ t[0][crc >> 56];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return ~crc;
}

void ContainerWriter::add_section(const std::string& name,
                                  std::string payload) {
  if (name.empty()) {
    throw SerializeError("ContainerWriter: empty section name");
  }
  if (has_section(name)) {
    throw SerializeError("ContainerWriter: duplicate section '" + name + "'");
  }
  sections_.emplace_back(name, std::move(payload));
}

bool ContainerWriter::has_section(const std::string& name) const {
  for (const auto& [n, payload] : sections_) {
    (void)payload;
    if (n == name) return true;
  }
  return false;
}

std::string ContainerWriter::serialize() const {
  // Lay out payloads first (8-byte aligned), then the table, then assemble
  // the fixed header in front.
  std::string body;
  ByteWriter table;
  std::uint64_t offset = kHeaderBytes;
  for (const auto& [name, payload] : sections_) {
    const std::uint64_t aligned = padded(offset);
    body.append(aligned - offset, '\0');
    offset = aligned;
    body.append(payload);
    table.str(name);
    table.u64(offset);
    table.u64(payload.size());
    table.u64(crc64(payload));
    offset += payload.size();
  }
  const std::uint64_t table_offset = offset;
  const std::string table_bytes = table.take();
  const std::uint64_t total =
      table_offset + static_cast<std::uint64_t>(table_bytes.size());

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  ByteWriter fixed;
  fixed.u32(kFormatVersion);
  fixed.u32(static_cast<std::uint32_t>(sections_.size()));
  fixed.u64(table_offset);
  fixed.u64(total);
  fixed.u64(crc64(table_bytes));
  out.append(fixed.buffer());
  out.append(body);
  out.append(table_bytes);
  return out;
}

void ContainerWriter::finish(const std::string& path) const {
  const std::string bytes = serialize();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw SerializeError("ContainerWriter: cannot open " + path +
                         " for writing");
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();  // surface deferred write errors (disk full) in the state
  if (!out) {
    throw SerializeError("ContainerWriter: write failed for " + path +
                         " (disk full or I/O error); file is incomplete");
  }
}

ContainerReader::ContainerReader(const std::string& path) : path_(path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open for reading");
  // One read sized from the file, straight into the buffer.  Only a regular
  // file has a size to trust (a directory opens but reads nothing, a pipe
  // has no size).  A file that shrinks after the size query fails the count
  // check; one that grows is read up to its old size, which parse() then
  // vets against the header's declared size and the checksums.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    fail("not a regular file");
  }
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) fail("cannot read the file size (" + ec.message() + ")");
  bytes_.resize(size);
  in.read(bytes_.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uintmax_t>(in.gcount()) != size) {
    fail("read failed (got " + std::to_string(in.gcount()) + " of " +
         std::to_string(size) + " bytes)");
  }
  parse();
}

ContainerReader::ContainerReader(std::string bytes, std::string label)
    : path_(std::move(label)), bytes_(std::move(bytes)) {
  parse();
}

void ContainerReader::fail(const std::string& what) const {
  throw SerializeError(path_ + ": " + what);
}

void ContainerReader::parse() {
  if (bytes_.size() < kHeaderBytes) {
    fail("not a khss model container (file is " +
         std::to_string(bytes_.size()) + " bytes; the header alone is " +
         std::to_string(kHeaderBytes) + ")");
  }
  if (std::memcmp(bytes_.data(), kMagic, sizeof(kMagic)) != 0) {
    fail("not a khss model container (bad magic)");
  }
  ByteReader header(
      std::string_view(bytes_).substr(sizeof(kMagic),
                                      kHeaderBytes - sizeof(kMagic)),
      path_ + ": header");
  version_ = header.u32();
  if (version_ != kFormatVersion) {
    fail("unknown container format version " + std::to_string(version_) +
         " (this build reads version " + std::to_string(kFormatVersion) +
         "); refusing to guess at the layout");
  }
  const std::uint32_t count = header.u32();
  const std::uint64_t table_offset = header.u64();
  const std::uint64_t declared_size = header.u64();
  const std::uint64_t table_crc = header.u64();

  if (declared_size != bytes_.size()) {
    fail("truncated or padded file: header declares " +
         std::to_string(declared_size) + " bytes, found " +
         std::to_string(bytes_.size()));
  }
  if (table_offset < kHeaderBytes || table_offset > bytes_.size()) {
    fail("section table offset " + std::to_string(table_offset) +
         " is outside the file (size " + std::to_string(bytes_.size()) + ")");
  }
  const std::string_view table_bytes =
      std::string_view(bytes_).substr(table_offset);
  if (crc64(table_bytes) != table_crc) {
    fail("section table checksum mismatch — the file is corrupt");
  }

  ByteReader table(table_bytes, path_ + ": section table");
  sections_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Section s;
    s.name = table.str();
    s.offset = table.u64();
    s.size = table.u64();
    s.crc = table.u64();
    if (s.offset < kHeaderBytes || s.offset > bytes_.size() ||
        s.size > bytes_.size() - s.offset) {
      fail("section '" + s.name + "' points outside the file (offset " +
           std::to_string(s.offset) + ", size " + std::to_string(s.size) +
           ", file " + std::to_string(bytes_.size()) + " bytes)");
    }
    sections_.push_back(std::move(s));
  }
  table.expect_exhausted("section table");
}

const ContainerReader::Section* ContainerReader::find(
    const std::string& name) const {
  for (const Section& s : sections_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool ContainerReader::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::vector<std::string> ContainerReader::section_names() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const Section& s : sections_) names.push_back(s.name);
  return names;
}

std::string_view ContainerReader::section(const std::string& name) const {
  const Section* s = find(name);
  if (s == nullptr) {
    std::string have;
    for (const Section& sec : sections_) {
      have += (have.empty() ? "" : ", ") + sec.name;
    }
    fail("missing section '" + name + "' (file has: " + have + ")");
  }
  const std::string_view payload =
      std::string_view(bytes_).substr(s->offset, s->size);
  if (!s->verified) {
    if (crc64(payload) != s->crc) {
      fail("checksum mismatch in section '" + name +
           "' — the file is corrupt");
    }
    s->verified = true;
  }
  return payload;
}

ByteReader ContainerReader::reader(const std::string& name) const {
  return ByteReader(section(name), path_ + ": section '" + name + "'");
}

}  // namespace khss::serialize
