#pragma once

/// @file table.hpp
/// ASCII table rendering for the benchmark harness output.
///
/// The bench binaries print rows mirroring the paper's tables; this helper
/// keeps the formatting (alignment, separators) in one place.

#include <string>
#include <vector>

namespace scaa::util {

/// Builds a left-header ASCII table and renders it with aligned columns.
class TextTable {
 public:
  /// Set the column headers. Must be called before adding rows.
  void set_header(std::vector<std::string> header);

  /// Add a row; must have the same number of cells as the header.
  void add_row(std::vector<std::string> row);

  /// Render with column padding, a header rule, and `|` separators.
  std::string render() const;

  /// Number of data rows.
  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-point formatting used when filling tables.
std::string format_double(double v, int decimals = 2);

}  // namespace scaa::util
