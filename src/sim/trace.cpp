#include "sim/trace.hpp"

#include <utility>

namespace scaa::sim {

void Trace::decimate(std::size_t n) {
  if (n <= 1 || rows_.empty()) return;
  std::vector<TraceRow> kept;
  kept.reserve(rows_.size() / n + 1);
  for (std::size_t i = 0; i < rows_.size(); i += n) kept.push_back(rows_[i]);
  rows_ = std::move(kept);
}

}  // namespace scaa::sim
