#include "msg/log.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

namespace scaa::msg {

namespace {

template <typename M>
void republish_as(PubSubBus& bus, const WireFrame& frame) {
  M m{};
  deserialize(frame.payload, m);
  bus.publish(m);
}

}  // namespace

void republish(PubSubBus& bus, const WireFrame& frame) {
  switch (frame.topic) {
    case Topic::kGpsLocationExternal:
      republish_as<GpsLocationExternal>(bus, frame);
      return;
    case Topic::kModelV2: republish_as<ModelV2>(bus, frame); return;
    case Topic::kRadarState: republish_as<RadarState>(bus, frame); return;
    case Topic::kCarState: republish_as<CarState>(bus, frame); return;
    case Topic::kCarControl: republish_as<CarControl>(bus, frame); return;
    case Topic::kControlsState:
      republish_as<ControlsState>(bus, frame);
      return;
  }
  throw std::invalid_argument("republish: unknown topic");
}

void MessageLog::record_topic(PubSubBus& bus, Topic topic,
                              std::function<std::uint64_t()> clock) {
  subscriptions_.push_back(bus.subscribe_raw(
      topic, [this, clock = std::move(clock)](const WireFrame& frame) {
        // The frame payload is a view into the publishing call's frame
        // buffer; the log owns its copy.
        entries_.push_back(
            {clock ? clock() : 0,
             {frame.topic, frame.sequence,
              {frame.payload.begin(), frame.payload.end()}}});
      }));
}

void MessageLog::record_all(PubSubBus& bus,
                            std::function<std::uint64_t()> clock) {
  for (std::size_t i = 1; i <= kTopicCount; ++i)
    record_topic(bus, static_cast<Topic>(i), clock);
}

void MessageLog::stop(PubSubBus& bus) {
  for (const auto id : subscriptions_) bus.unsubscribe(id);
  subscriptions_.clear();
}

std::size_t MessageLog::count(Topic topic) const noexcept {
  std::size_t n = 0;
  for (const auto& e : entries_)
    if (e.frame.topic == topic) ++n;
  return n;
}

void MessageLog::replay(PubSubBus& bus) const {
  for (const auto& e : entries_) republish(bus, e.frame.view());
}

void MessageLog::save(std::ostream& out) const {
  Encoder header;
  header.put_u32(0x53414C47);  // "SALG" magic
  header.put_u64(entries_.size());
  const auto& hb = header.bytes();
  out.write(reinterpret_cast<const char*>(hb.data()),
            static_cast<std::streamsize>(hb.size()));
  for (const auto& e : entries_) {
    Encoder enc;
    enc.put_u64(e.step);
    enc.put_u16(static_cast<std::uint16_t>(e.frame.topic));
    enc.put_u64(e.frame.sequence);
    enc.put_u32(static_cast<std::uint32_t>(e.frame.payload.size()));
    const auto& b = enc.bytes();
    out.write(reinterpret_cast<const char*>(b.data()),
              static_cast<std::streamsize>(b.size()));
    out.write(reinterpret_cast<const char*>(e.frame.payload.data()),
              static_cast<std::streamsize>(e.frame.payload.size()));
  }
}

MessageLog MessageLog::load(std::istream& in) {
  auto read_bytes = [&in](std::size_t n) {
    std::vector<std::uint8_t> buf(n);
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in.gcount()) != n)
      throw std::runtime_error("MessageLog::load: truncated stream");
    return buf;
  };

  MessageLog log;
  const auto header = read_bytes(12);
  Decoder hd(header);
  if (hd.get_u32() != 0x53414C47)
    throw std::runtime_error("MessageLog::load: bad magic");
  const std::uint64_t count = hd.get_u64();
  log.entries_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto meta = read_bytes(22);
    Decoder md(meta);
    LogEntry e;
    e.step = md.get_u64();
    e.frame.topic = static_cast<Topic>(md.get_u16());
    e.frame.sequence = md.get_u64();
    const std::uint32_t payload_size = md.get_u32();
    e.frame.payload = read_bytes(payload_size);
    log.entries_.push_back(std::move(e));
  }
  return log;
}

}  // namespace scaa::msg
