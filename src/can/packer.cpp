#include "can/packer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace scaa::can {

CanPacker::CanPacker(const Database& db)
    : db_(&db),
      counters_(db.schema().message_count(), 0),
      scratch_(db.schema().max_signals_per_message(), kSignalUnset) {}

void CanPacker::reset_counters() noexcept {
  std::fill(counters_.begin(), counters_.end(), std::uint8_t{0});
}

CanFrame CanPacker::pack(MessageHandle msg, std::span<const double> values) {
  const DbcMessage& layout = db_->message(msg);

  // The payload is built as one word and stored once.
  std::uint64_t word = 0;
  const std::size_t n = std::min(values.size(), layout.signals.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isnan(values[i]))
      word = layout.signals[i].replace(word, values[i]);
  }

  if (layout.checksum == ChecksumKind::kHonda) {
    std::uint8_t& counter = counters_[msg.index];
    word = with_counter(word, layout.size, counter);
    counter = static_cast<std::uint8_t>((counter + 1) & 0x3);
    word = with_honda_checksum(db_->id_nibble_sum(msg), word, layout.size);
  }

  CanFrame frame;
  frame.id = layout.id;
  frame.dlc = layout.size;
  store_payload(frame.data, word);
  return frame;
}

CanFrame CanPacker::pack(const std::string& message_name,
                         const std::map<std::string, double>& values) {
  const MessageHandle msg = db_->schema().message_by_name(message_name);
  if (!msg.valid())
    throw std::invalid_argument("CanPacker: unknown message " + message_name);

  const std::size_t n = db_->schema().signal_count(msg);
  std::fill(scratch_.begin(), scratch_.begin() + n, kSignalUnset);
  for (const auto& [name, value] : values) {
    const SignalHandle sig = db_->schema().signal_by_name(msg, name);
    if (!sig.valid())
      throw std::invalid_argument("CanPacker: unknown signal " + name +
                                  " in " + message_name);
    scratch_[sig.signal] = value;
  }
  return pack(msg, std::span<const double>(scratch_.data(), n));
}

CanParser::CanParser(const Database& db)
    : db_(&db),
      last_counter_(db.schema().message_count(), -1),
      values_(db.schema().max_signals_per_message(), 0.0) {}

void CanParser::reset() noexcept {
  std::fill(last_counter_.begin(), last_counter_.end(), std::int16_t{-1});
  counter_errors_ = 0;
}

const CanParser::ParsedFrame* CanParser::validate(const CanFrame& frame) {
  return check(frame, load_payload(frame.data));
}

const CanParser::ParsedFrame* CanParser::check(const CanFrame& frame,
                                               std::uint64_t word) {
  const MessageHandle msg = db_->schema().message_by_id(frame.id);
  if (!msg.valid()) return nullptr;
  const DbcMessage& layout = db_->message(msg);

  flat_.handle = msg;
  flat_.message = &layout;
  flat_.values = {};
  flat_.checksum_ok = true;
  flat_.counter_ok = true;

  if (layout.checksum == ChecksumKind::kHonda) {
    flat_.checksum_ok =
        honda_checksum_ok(db_->id_nibble_sum(msg), word, frame.dlc);

    const std::uint8_t counter = counter_of(word, frame.dlc);
    std::int16_t& last = last_counter_[msg.index];
    if (last >= 0) {
      const auto expected = static_cast<std::uint8_t>((last + 1) & 0x3);
      flat_.counter_ok = counter == expected;
      if (!flat_.counter_ok) ++counter_errors_;
    }
    last = counter;
  }
  return &flat_;
}

const CanParser::ParsedFrame* CanParser::parse_flat(const CanFrame& frame) {
  const std::uint64_t word = load_payload(frame.data);
  if (check(frame, word) == nullptr) return nullptr;
  const std::vector<DbcSignal>& signals = flat_.message->signals;
  const std::size_t n = signals.size();
  for (std::size_t i = 0; i < n; ++i) values_[i] = signals[i].value(word);
  flat_.values = std::span<const double>(values_.data(), n);
  return &flat_;
}

std::optional<CanParser::Parsed> CanParser::parse(const CanFrame& frame) {
  const ParsedFrame* flat = parse_flat(frame);
  if (flat == nullptr) return std::nullopt;

  Parsed out;
  out.message = flat->message;
  out.checksum_ok = flat->checksum_ok;
  out.counter_ok = flat->counter_ok;
  for (std::size_t i = 0; i < flat->values.size(); ++i)
    out.values[flat->message->signals[i].name()] = flat->values[i];
  return out;
}

}  // namespace scaa::can
