#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

/// \file table.hpp
/// Text table and CSV emitters used by the bench harnesses to print the
/// paper's tables and figure series in a stable, diffable format.

namespace hbosim {

/// An aligned plain-text table (markdown-ish pipes).
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Convenience: format a double with the given precision.
  static std::string num(double v, int precision = 2);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Write one CSV field per RFC 4180: a field holding a comma, a quote, CR
/// or LF is quoted, with inner quotes doubled; any other field is written
/// as it is.
void write_csv_field(std::ostream& os, std::string_view field);

/// Streams rows of comma-separated values with a header; used to emit
/// figure series (x, series1, series2, ...) that plot directly. Header
/// names and string fields are quoted by write_csv_field().
class CsvWriter {
 public:
  CsvWriter(std::ostream& os, std::vector<std::string> header);

  void row(const std::vector<double>& values);
  void row(const std::vector<std::string>& values);

 private:
  std::ostream& os_;
  std::size_t columns_;
};

}  // namespace hbosim
