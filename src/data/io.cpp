#include "data/io.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cfloat>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <system_error>

namespace khss::data {

namespace {

// Loader parse errors carry file:line context — std::stod/std::stoi would
// otherwise escape as bare std::invalid_argument / std::out_of_range with no
// hint of which of a million input lines was malformed.
[[noreturn]] void parse_error(const std::string& path, int line,
                              const std::string& what,
                              const std::string& token) {
  throw std::runtime_error(path + ":" + std::to_string(line) + ": " + what +
                           " '" + token + "'");
}

// Allocation-free token parsers used by the loaders: they parse a
// [begin, end) slice of the line buffer directly and only materialize the
// token string on the error path.  Leading whitespace is accepted, trailing
// whitespace is accepted for doubles (CSV cells like " 2.5 ") but not ints,
// trailing junk ("2.5.3", "1e9x") and out-of-range magnitudes are rejected.
// `end` must point at a parse-stopping character (delimiter, colon,
// whitespace or the line's NUL terminator), so strtod/strtol cannot run past
// the slice.
//
// A double cell takes std::from_chars' value (correctly rounded, like
// strtod, but several times faster) only when that call consumed the whole
// cell without error and the value is finite and either zero or larger
// than DBL_MIN in magnitude.  Every other cell goes to strtod, which stays
// the arbiter of what is accepted and refused: from_chars refuses a leading
// '+' or whitespace and reads only the "0" of "0x1p3" (the whole-cell
// test), reports overflow and underflow as errors with the value left at
// zero (the errc test), drops NaN payloads (the finiteness test), and
// returns subnormals and values that round up to DBL_MIN where strtod
// reports ERANGE, which the loaders refuse (the magnitude test, strict
// because such a value equals DBL_MIN).
double parse_double_range(const char* begin, const char* end,
                          const std::string& path, int line,
                          const std::string& what) {
  double fast = 0.0;
  const auto [ptr, ec] = std::from_chars(begin, end, fast);
  if (ec == std::errc{} && ptr == end && std::isfinite(fast) &&
      (fast == 0.0 || std::fabs(fast) > DBL_MIN)) {
    return fast;
  }
  errno = 0;
  char* stop = nullptr;
  const double v = std::strtod(begin, &stop);
  const bool out_of_range = errno == ERANGE;
  if (stop == begin) parse_error(path, line, what, std::string(begin, end));
  while (stop < end && std::isspace(static_cast<unsigned char>(*stop))) {
    ++stop;
  }
  if (stop != end) parse_error(path, line, what, std::string(begin, end));
  if (out_of_range) {
    parse_error(path, line, what + " (out of range)", std::string(begin, end));
  }
  return v;
}

int parse_int_range(const char* begin, const char* end,
                    const std::string& path, int line,
                    const std::string& what) {
  errno = 0;
  char* stop = nullptr;
  const long v = std::strtol(begin, &stop, 10);
  if (stop == begin || stop != end) {
    parse_error(path, line, what, std::string(begin, end));
  }
  if (errno == ERANGE || v > INT_MAX || v < INT_MIN) {
    parse_error(path, line, what + " (out of range)", std::string(begin, end));
  }
  return static_cast<int>(v);
}

// Chunked newline count for an exact up-front reserve(), then rewind.  One
// sequential pass over the raw bytes is far cheaper than the reallocation
// churn of growing a million-row vector by push_back.
std::size_t count_data_lines(std::ifstream& in) {
  std::vector<char> buf(1 << 16);
  std::size_t newlines = 0;
  bool ends_with_newline = true;
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
    const std::streamsize got = in.gcount();
    newlines += static_cast<std::size_t>(
        std::count(buf.data(), buf.data() + got, '\n'));
    ends_with_newline = buf[got - 1] == '\n';
    if (in.eof()) break;
  }
  in.clear();
  in.seekg(0);
  return newlines + (ends_with_newline ? 0 : 1);
}

// The delimited-text row loop shared by load_csv and load_matrix_csv.
// Skips '#' comment lines, empty lines and empty cells, parses every cell
// with parse_double_range and refuses a row whose width differs from the
// first row's (the message names `who`).  Calls on_row(cells) for each data
// row and stops early when it returns false.
template <typename OnRow>
void read_csv_rows(std::ifstream& in, const std::string& path, char delimiter,
                   const char* who, OnRow&& on_row) {
  std::string line;
  std::vector<double> vals;  // reused per row
  std::size_t width = 0;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    vals.clear();
    // Cells parsed straight out of the line buffer.  The cell terminator is
    // temporarily NUL-ed so strtod can never run past a cell even with an
    // exotic delimiter.
    char* cb = line.data();
    char* const lend = line.data() + line.size();
    while (cb <= lend) {
      char* ce = std::find(cb, lend, delimiter);
      if (ce != cb) {
        const char saved = *ce;
        *ce = '\0';
        vals.push_back(parse_double_range(cb, ce, path, lineno, "bad CSV cell"));
        *ce = saved;
      }
      if (ce == lend) break;
      cb = ce + 1;
    }
    if (vals.empty()) continue;
    if (width == 0) {
      width = vals.size();
    } else if (vals.size() != width) {
      throw std::runtime_error(std::string(who) + ": " + path + ":" +
                               std::to_string(lineno) + ": ragged row (" +
                               std::to_string(vals.size()) +
                               " columns, expected " + std::to_string(width) +
                               ")");
    }
    if (!on_row(vals)) break;
  }
}

// Map arbitrary label values (e.g. {-1, +1} or {1..26}) to dense ids 0..c-1,
// preserving sorted order of the original values.
void densify_labels(std::vector<double> raw, Dataset& out) {
  std::vector<double> uniq = raw;
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  std::map<double, int> id;
  for (std::size_t i = 0; i < uniq.size(); ++i) id[uniq[i]] = static_cast<int>(i);
  out.labels.resize(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) out.labels[i] = id[raw[i]];
  out.num_classes = static_cast<int>(uniq.size());
}

// The silent-failure trap this guards against: ofstream::operator<< never
// throws by default, so a full disk (ENOSPC) or a write error surfaces only
// as a badbit that nobody checked — the old savers returned normally having
// written a truncated file.  Flush, THEN check the final stream state, and
// name the path in the error.
void check_write(std::ofstream& out, const char* who, const std::string& path) {
  out.flush();
  if (!out) {
    throw std::runtime_error(std::string(who) + ": write to " + path +
                             " failed (disk full or I/O error); the file is "
                             "incomplete");
  }
}

}  // namespace

Dataset load_csv(const std::string& path, char delimiter, long max_rows) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_csv: cannot open " + path);

  // One chunked pre-scan sizes every container exactly; a capped read
  // already knows its bound and skips the extra pass.
  const std::size_t expected = max_rows > 0 ? static_cast<std::size_t>(max_rows)
                                            : count_data_lines(in);
  std::vector<double> flat;  // features, row-major
  std::vector<double> raw_labels;
  raw_labels.reserve(expected);

  int dim = -1;
  read_csv_rows(in, path, delimiter, "load_csv",
                [&](const std::vector<double>& vals) {
                  if (dim < 0) {
                    dim = static_cast<int>(vals.size()) - 1;
                    if (dim <= 0) {
                      throw std::runtime_error("load_csv: need >= 2 columns");
                    }
                    flat.reserve(expected * static_cast<std::size_t>(dim));
                  }
                  raw_labels.push_back(vals[0]);
                  flat.insert(flat.end(), vals.begin() + 1, vals.end());
                  return max_rows <= 0 ||
                         static_cast<long>(raw_labels.size()) < max_rows;
                });
  if (raw_labels.empty()) {
    throw std::runtime_error("load_csv: no data in " + path);
  }

  Dataset out;
  out.name = path;
  out.points = la::Matrix(static_cast<int>(raw_labels.size()), dim);
  std::copy(flat.begin(), flat.end(), out.points.data());
  densify_labels(std::move(raw_labels), out);
  return out;
}

Dataset load_libsvm(const std::string& path, int dim, long max_rows) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_libsvm: cannot open " + path);

  const std::size_t expected = max_rows > 0 ? static_cast<std::size_t>(max_rows)
                                            : count_data_lines(in);
  // Flat (index, value) pairs with per-row offsets instead of a
  // vector-of-vectors: one growable buffer, no per-row allocations.
  std::vector<std::pair<int, double>> feats;
  std::vector<std::size_t> row_start{0};
  row_start.reserve(expected + 1);
  std::vector<double> raw_labels;
  raw_labels.reserve(expected);

  const auto is_ws = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  std::string line;
  std::vector<int> idxs;  // reused per-row duplicate check
  int max_index = dim;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const char* p = line.c_str();
    const char* const lend = p + line.size();
    while (p < lend && is_ws(*p)) ++p;
    if (p == lend) continue;  // whitespace-only line

    // A label that fails to parse is an error, never a silent skip — the
    // old `if (!(ss >> label)) continue;` dropped whole data rows.
    const char* te = p;
    while (te < lend && !is_ws(*te)) ++te;
    raw_labels.push_back(parse_double_range(p, te, path, lineno, "bad label"));
    p = te;

    while (true) {
      while (p < lend && is_ws(*p)) ++p;
      if (p == lend) break;
      te = p;
      while (te < lend && !is_ws(*te)) ++te;
      const char* colon = std::find(p, te, ':');
      if (colon == te) {
        parse_error(path, lineno, "malformed feature token",
                    std::string(p, te));
      }
      const int idx = parse_int_range(p, colon, path, lineno, "bad index");
      const double val =
          parse_double_range(colon + 1, te, path, lineno, "bad value");
      if (idx <= 0) {
        parse_error(path, lineno, "indices are 1-based; bad index",
                    std::string(p, te));
      }
      max_index = std::max(max_index, idx);
      feats.emplace_back(idx - 1, val);
      p = te;
    }

    // Duplicate indices within a row would silently overwrite a value;
    // one O(k log k) pass per row keeps dense rows linear-ish to load.
    idxs.clear();
    for (std::size_t k = row_start.back(); k < feats.size(); ++k) {
      idxs.push_back(feats[k].first);
    }
    std::sort(idxs.begin(), idxs.end());
    for (std::size_t i = 1; i < idxs.size(); ++i) {
      if (idxs[i] == idxs[i - 1]) {
        parse_error(path, lineno, "duplicate feature index",
                    std::to_string(idxs[i] + 1));
      }
    }
    row_start.push_back(feats.size());
    if (max_rows > 0 && static_cast<long>(raw_labels.size()) >= max_rows) break;
  }
  if (raw_labels.empty()) {
    throw std::runtime_error("load_libsvm: no data in " + path);
  }

  Dataset out;
  out.name = path;
  const int nrows = static_cast<int>(raw_labels.size());
  out.points = la::Matrix(nrows, max_index);
  for (int i = 0; i < nrows; ++i) {
    double* row = out.points.row(i);
    for (std::size_t k = row_start[i]; k < row_start[i + 1]; ++k) {
      row[feats[k].first] = feats[k].second;
    }
  }
  densify_labels(std::move(raw_labels), out);
  return out;
}

void save_csv(const Dataset& d, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_csv: cannot open " + path);
  out.precision(17);
  for (int i = 0; i < d.n(); ++i) {
    out << d.labels[i];
    const double* row = d.points.row(i);
    for (int j = 0; j < d.dim(); ++j) out << ',' << row[j];
    out << '\n';
  }
  check_write(out, "save_csv", path);
}

void save_libsvm(const Dataset& d, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_libsvm: cannot open " + path);
  out.precision(17);
  for (int i = 0; i < d.n(); ++i) {
    out << d.labels[i];
    const double* row = d.points.row(i);
    for (int j = 0; j < d.dim(); ++j) {
      if (row[j] != 0.0) out << ' ' << (j + 1) << ':' << row[j];
    }
    out << '\n';
  }
  check_write(out, "save_libsvm", path);
}

void save_matrix_csv(const la::Matrix& m, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_matrix_csv: cannot open " + path);
  out.precision(17);  // round-trips doubles exactly
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      if (j > 0) out << ',';
      out << m(i, j);
    }
    out << '\n';
  }
  check_write(out, "save_matrix_csv", path);
}

la::Matrix load_matrix_csv(const std::string& path, char delimiter) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_matrix_csv: cannot open " + path);

  std::vector<double> flat;  // row-major
  int rows = 0;
  int cols = 0;
  read_csv_rows(in, path, delimiter, "load_matrix_csv",
                [&](const std::vector<double>& vals) {
                  cols = static_cast<int>(vals.size());
                  flat.insert(flat.end(), vals.begin(), vals.end());
                  ++rows;
                  return true;
                });
  if (rows == 0) {
    throw std::runtime_error("load_matrix_csv: no data in " + path);
  }
  la::Matrix m(rows, cols);
  std::copy(flat.begin(), flat.end(), m.data());
  return m;
}

}  // namespace khss::data
