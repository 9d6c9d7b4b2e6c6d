#pragma once
// Byte-level encode/decode for the model persistence layer.
//
// Everything the container format (container.hpp) stores goes through these
// two classes.  The on-disk encoding is fixed little-endian regardless of the
// host (DESIGN.md "Model container format", Endianness: arrays move with one
// memcpy, and the byteswap happens here only on big-endian machines, so files
// are portable), doubles are raw IEEE-754 bit patterns (bit-exact round trip,
// the property the serving tier's bit-identical-scores contract rests on),
// and every read is bounds-checked: a truncated or corrupted payload throws
// SerializeError with the reader's context string and byte offset instead of
// reading past the buffer.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "la/matrix.hpp"

namespace khss::serialize {

/// Every failure of the persistence layer — malformed container, checksum
/// mismatch, truncated payload, semantic mismatch between sections — throws
/// this, always with enough context (path, section, offset) to name the
/// culprit.  Loaders never return a half-loaded model: they throw before any
/// partially-deserialized artifact escapes.
class SerializeError : public std::runtime_error {
 public:
  explicit SerializeError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Append-only little-endian encoder over an owned byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v);

  /// Length-prefixed (u32) byte string.
  void str(std::string_view s);

  /// Length-prefixed (u64 count) element arrays.
  void vec_i32(const std::vector<int>& v);
  void vec_f64(const std::vector<double>& v);

  /// rows, cols (i32 each) + row-major f64 payload.
  void matrix(const la::Matrix& m);

  const std::string& buffer() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte range.  The
/// context string (typically "<path>: section '<name>'") prefixes every
/// error.  The buffer must outlive the reader.
class ByteReader {
 public:
  ByteReader(std::string_view data, std::string context)
      : data_(data), context_(std::move(context)) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  std::string str();
  std::vector<int> vec_i32();
  std::vector<double> vec_f64();
  la::Matrix matrix();

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }
  /// Trailing unread bytes mean the payload does not match the schema the
  /// reader expects (e.g. an artifact written by a different backend).
  void expect_exhausted(const std::string& what) const;

  [[noreturn]] void fail(const std::string& what) const;

 private:
  void need(std::size_t n, const char* what) const;
  /// Copies `count` elements of `width` bytes into `dst`; the caller has
  /// checked that the payload holds them.
  void take_array(void* dst, std::size_t count, std::size_t width);

  std::string_view data_;
  std::size_t pos_ = 0;
  std::string context_;
};

}  // namespace khss::serialize
