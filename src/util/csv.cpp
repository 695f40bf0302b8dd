#include "util/csv.hpp"

#include <iomanip>
#include <stdexcept>

namespace scaa::util {

void CsvWriter::header(const std::vector<std::string>& columns) {
  if (header_written_) throw std::logic_error("CsvWriter: header written twice");
  if (columns.empty()) throw std::invalid_argument("CsvWriter: empty header");
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) *out_ << ',';
    *out_ << escape(columns[i]);
  }
  *out_ << '\n';
  header_written_ = true;
  columns_ = columns.size();
}

CsvWriter& CsvWriter::row() {
  if (!header_written_) throw std::logic_error("CsvWriter: header not written");
  if (in_row_) throw std::logic_error("CsvWriter: previous row not ended");
  in_row_ = true;
  first_cell_ = true;
  cells_in_row_ = 0;
  return *this;
}

void CsvWriter::separator() {
  if (!in_row_) throw std::logic_error("CsvWriter: cell outside a row");
  if (!first_cell_) *out_ << ',';
  first_cell_ = false;
  ++cells_in_row_;
}

CsvWriter& CsvWriter::cell(const std::string& value) {
  separator();
  *out_ << escape(value);
  return *this;
}

CsvWriter& CsvWriter::cell(double value) {
  separator();
  *out_ << std::setprecision(12) << value;
  return *this;
}

CsvWriter& CsvWriter::cell(long long value) {
  separator();
  *out_ << value;
  return *this;
}

CsvWriter& CsvWriter::cell(bool value) {
  separator();
  *out_ << (value ? 1 : 0);
  return *this;
}

void CsvWriter::end_row() {
  if (!in_row_) throw std::logic_error("CsvWriter: end_row outside a row");
  if (cells_in_row_ != columns_)
    throw std::logic_error("CsvWriter: row width does not match header");
  *out_ << '\n';
  in_row_ = false;
}

std::string CsvWriter::escape(const std::string& value) {
  const bool needs_quotes =
      value.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) return value;
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace scaa::util
