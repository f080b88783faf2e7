#include "hbosim/common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "hbosim/common/error.hpp"

namespace hbosim {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  HB_REQUIRE(!header_.empty(), "TextTable requires a non-empty header");
}

void TextTable::add_row(std::vector<std::string> cells) {
  HB_REQUIRE(cells.size() == header_.size(),
             "TextTable row width must match header");
  rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t c = 0; c < row.size(); ++c)
      os << ' ' << std::left << std::setw(static_cast<int>(widths[c]))
         << row[c] << " |";
    os << '\n';
  };
  emit(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c)
    os << std::string(widths[c] + 2, '-') << '|';
  os << '\n';
  for (const auto& row : rows_) emit(row);
}

void write_csv_field(std::ostream& os, std::string_view field) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    os << field;
    return;
  }
  os << '"';
  for (char c : field) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

CsvWriter::CsvWriter(std::ostream& os, std::vector<std::string> header)
    : os_(os), columns_(header.size()) {
  HB_REQUIRE(columns_ > 0, "CsvWriter requires a non-empty header");
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) os_ << ',';
    write_csv_field(os_, header[i]);
  }
  os_ << '\n';
}

void CsvWriter::row(const std::vector<double>& values) {
  HB_REQUIRE(values.size() == columns_, "CsvWriter row width mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) os_ << ',';
    os_ << values[i];
  }
  os_ << '\n';
}

void CsvWriter::row(const std::vector<std::string>& values) {
  HB_REQUIRE(values.size() == columns_, "CsvWriter row width mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) os_ << ',';
    write_csv_field(os_, values[i]);
  }
  os_ << '\n';
}

}  // namespace hbosim
