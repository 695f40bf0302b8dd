#pragma once

/// @file csv.hpp
/// Minimal CSV emission for traces and experiment exports.
///
/// Output-only by design: the platform never consumes CSV, it only exports
/// traces (Fig. 7) and parameter-space points (Fig. 8) for external plotting.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace scaa::util {

/// Row-oriented CSV writer. Values are formatted with enough precision to
/// round-trip doubles; strings containing separators/quotes are quoted.
class CsvWriter {
 public:
  /// Write to the given stream (not owned; must outlive the writer).
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  /// Emit the header row. Must be called before any data rows (enforced).
  void header(const std::vector<std::string>& columns);

  /// Begin a new row.
  CsvWriter& row();

  /// Append a string cell to the current row.
  CsvWriter& cell(const std::string& value);

  /// Append a numeric cell to the current row.
  CsvWriter& cell(double value);

  /// Append an integer cell to the current row.
  CsvWriter& cell(long long value);

  /// Append a boolean cell (emitted as 0/1).
  CsvWriter& cell(bool value);

  /// Finish the current row (writes the newline).
  void end_row();

 private:
  void separator();
  static std::string escape(const std::string& value);

  std::ostream* out_;
  bool header_written_ = false;
  bool in_row_ = false;
  bool first_cell_ = true;
  std::size_t columns_ = 0;
  std::size_t cells_in_row_ = 0;
};

}  // namespace scaa::util
