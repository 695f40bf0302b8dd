#include "can/schema.hpp"

#include <algorithm>

namespace scaa::can {

MessageSchema::MessageSchema(const std::vector<DbcMessage>& messages) {
  id_direct_.assign(kDirectIds, -1);
  signal_counts_.reserve(messages.size());
  signal_offsets_.reserve(messages.size());
  names_.reserve(messages.size());

  for (std::size_t m = 0; m < messages.size(); ++m) {
    const auto& msg = messages[m];
    const auto index = static_cast<std::uint16_t>(m);
    // First declaration wins on duplicates, matching the historical
    // linear-scan lookup (sorted (key, index) pairs below give the same).
    if (msg.id < kDirectIds) {
      if (id_direct_[msg.id] < 0)
        id_direct_[msg.id] = static_cast<std::int32_t>(m);
    } else {
      id_overflow_.emplace_back(msg.id, index);
    }
    names_.emplace_back(msg.name, index);

    signal_offsets_.push_back(static_cast<std::uint32_t>(signal_names_.size()));
    signal_counts_.push_back(static_cast<std::uint16_t>(msg.signals.size()));
    max_signals_ = std::max(max_signals_, msg.signals.size());
    const std::size_t run_begin = signal_names_.size();
    for (std::size_t s = 0; s < msg.signals.size(); ++s)
      signal_names_.emplace_back(msg.signals[s].name(),
                                 static_cast<std::uint16_t>(s));
    std::sort(signal_names_.begin() + static_cast<std::ptrdiff_t>(run_begin),
              signal_names_.end());
  }
  std::sort(id_overflow_.begin(), id_overflow_.end());
  std::sort(names_.begin(), names_.end());
}

std::size_t MessageSchema::signal_count(MessageHandle msg) const noexcept {
  if (msg.index >= signal_counts_.size()) return 0;
  return signal_counts_[msg.index];
}

MessageHandle MessageSchema::message_by_id(std::uint32_t id) const noexcept {
  if (id < kDirectIds) {
    if (id_direct_.empty()) return {};
    const std::int32_t index = id_direct_[id];
    return index < 0 ? MessageHandle{}
                     : MessageHandle{static_cast<std::uint16_t>(index)};
  }
  const auto it = std::lower_bound(
      id_overflow_.begin(), id_overflow_.end(), id,
      [](const auto& entry, std::uint32_t key) { return entry.first < key; });
  if (it == id_overflow_.end() || it->first != id) return {};
  return MessageHandle{it->second};
}

MessageHandle MessageSchema::message_by_name(
    std::string_view name) const noexcept {
  const auto it = std::lower_bound(
      names_.begin(), names_.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it == names_.end() || it->first != name) return {};
  return MessageHandle{it->second};
}

SignalHandle MessageSchema::signal_by_name(MessageHandle msg,
                                           std::string_view name)
    const noexcept {
  if (msg.index >= signal_counts_.size()) return {};
  const auto begin =
      signal_names_.begin() + signal_offsets_[msg.index];
  const auto end = begin + signal_counts_[msg.index];
  const auto it = std::lower_bound(
      begin, end, name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it == end || it->first != name) return {};
  return SignalHandle{msg.index, it->second};
}

}  // namespace scaa::can
