#include "serialize/codec.hpp"

#include <algorithm>
#include <cstring>

namespace khss::serialize {

namespace {

// Single values are encoded and decoded through explicit shifts: the
// on-disk order is little-endian by construction, independent of host
// endianness, with no aliasing casts.
void put_le(std::string& buf, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t get_le(const char* p, int bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

// Arrays move with one memcpy; the host's byte order is their on-disk order
// unless the host is big-endian, where each element's bytes are reversed in
// place.  The test folds to a constant.
bool big_endian_host() {
  const std::uint16_t one = 1;
  unsigned char first = 0;
  std::memcpy(&first, &one, 1);
  return first == 0;
}

void swap_elements(char* p, std::size_t count, std::size_t width) {
  for (std::size_t i = 0; i < count; ++i, p += width) {
    std::reverse(p, p + width);
  }
}

void put_array(std::string& buf, const void* src, std::size_t count,
               std::size_t width) {
  const std::size_t at = buf.size();
  buf.append(static_cast<const char*>(src), count * width);
  if (big_endian_host()) swap_elements(buf.data() + at, count, width);
}

static_assert(sizeof(int) == 4, "32-bit int expected");
static_assert(sizeof(double) == 8, "IEEE-754 double expected");

}  // namespace

void ByteWriter::u32(std::uint32_t v) { put_le(buf_, v, 4); }
void ByteWriter::u64(std::uint64_t v) { put_le(buf_, v, 8); }

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void ByteWriter::vec_i32(const std::vector<int>& v) {
  u64(v.size());
  put_array(buf_, v.data(), v.size(), 4);
}

void ByteWriter::vec_f64(const std::vector<double>& v) {
  u64(v.size());
  put_array(buf_, v.data(), v.size(), 8);
}

void ByteWriter::matrix(const la::Matrix& m) {
  i32(m.rows());
  i32(m.cols());
  put_array(buf_, m.data(), m.size(), 8);
}

void ByteReader::fail(const std::string& what) const {
  throw SerializeError(context_ + ": " + what + " (at byte " +
                       std::to_string(pos_) + " of " +
                       std::to_string(data_.size()) + ")");
}

void ByteReader::need(std::size_t n, const char* what) const {
  if (data_.size() - pos_ < n) {
    fail(std::string("truncated payload reading ") + what);
  }
}

void ByteReader::take_array(void* dst, std::size_t count, std::size_t width) {
  const std::size_t bytes = count * width;
  if (bytes != 0) std::memcpy(dst, data_.data() + pos_, bytes);
  if (big_endian_host()) swap_elements(static_cast<char*>(dst), count, width);
  pos_ += bytes;
}

std::uint8_t ByteReader::u8() {
  need(1, "u8");
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  need(4, "u32");
  const std::uint32_t v =
      static_cast<std::uint32_t>(get_le(data_.data() + pos_, 4));
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  need(8, "u64");
  const std::uint64_t v = get_le(data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  const std::uint32_t len = u32();
  need(len, "string payload");
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

std::vector<int> ByteReader::vec_i32() {
  const std::uint64_t count = u64();
  // Reject counts the remaining bytes cannot possibly hold BEFORE
  // allocating: a corrupted length must not turn into a giant allocation.
  if (count > remaining() / 4) fail("int array length exceeds payload");
  std::vector<int> v(count);
  take_array(v.data(), count, 4);
  return v;
}

std::vector<double> ByteReader::vec_f64() {
  const std::uint64_t count = u64();
  if (count > remaining() / 8) fail("double array length exceeds payload");
  std::vector<double> v(count);
  take_array(v.data(), count, 8);
  return v;
}

la::Matrix ByteReader::matrix() {
  const std::int32_t rows = i32();
  const std::int32_t cols = i32();
  if (rows < 0 || cols < 0) {
    fail("negative matrix shape " + std::to_string(rows) + " x " +
         std::to_string(cols));
  }
  const std::uint64_t count =
      static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
  if (count > remaining() / 8) fail("matrix payload exceeds section size");
  la::Matrix m(rows, cols);
  take_array(m.data(), count, 8);
  return m;
}

void ByteReader::expect_exhausted(const std::string& what) const {
  if (!exhausted()) {
    throw SerializeError(context_ + ": " + std::to_string(remaining()) +
                         " unread trailing bytes after " + what +
                         " — payload does not match the expected schema");
  }
}

}  // namespace khss::serialize
