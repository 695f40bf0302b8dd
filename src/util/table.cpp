#include "util/table.hpp"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace scaa::util {

void TextTable::set_header(std::vector<std::string> header) {
  if (!rows_.empty())
    throw std::logic_error("TextTable: header after rows were added");
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  if (header_.empty()) throw std::logic_error("TextTable: no header set");
  if (row.size() != header_.size())
    throw std::invalid_argument("TextTable: row width mismatch");
  rows_.push_back(std::move(row));
}

std::string TextTable::render() const {
  if (header_.empty()) return {};
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      if (row[c].size() > widths[c]) widths[c] = row[c].size();

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    out << "| ";
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      out << (c + 1 == row.size() ? " |" : " | ");
    }
    out << '\n';
  };
  emit_row(header_);
  out << '|';
  for (std::size_t c = 0; c < widths.size(); ++c) {
    out << std::string(widths[c] + 2, '-');
    out << '|';
  }
  out << '\n';
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

std::string format_double(double v, int decimals) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(decimals) << v;
  return out.str();
}

}  // namespace scaa::util
