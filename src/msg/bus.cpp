#include "msg/bus.hpp"

#include <algorithm>
#include <stdexcept>

namespace scaa::msg {

std::string_view topic_name(Topic topic) {
  switch (topic) {
    case Topic::kGpsLocationExternal: return "gpsLocationExternal";
    case Topic::kModelV2: return "modelV2";
    case Topic::kRadarState: return "radarState";
    case Topic::kCarState: return "carState";
    case Topic::kCarControl: return "carControl";
    case Topic::kControlsState: return "controlsState";
  }
  return "unknown";
}

std::uint64_t PubSubBus::subscribe_raw(Topic topic, RawHandler handler) {
  if (!topic_valid(topic))
    throw std::invalid_argument("PubSubBus::subscribe_raw: unknown topic");
  const std::uint64_t id = next_id_++;
  topics_[topic_index(topic)].raw.push_back(
      std::make_unique<RawSub>(RawSub{id, true, std::move(handler)}));
  return id;
}

std::uint64_t PubSubBus::subscribe_typed(Topic topic, TypedHandler handler) {
  const std::uint64_t id = next_id_++;
  topics_[topic_index(topic)].typed.push_back(
      std::make_unique<TypedSub>(TypedSub{id, true, std::move(handler)}));
  return id;
}

void PubSubBus::unsubscribe(std::uint64_t id) {
  // Ids are unique across both kinds and all topics, so the first match is
  // the only one. During dispatch the entry is only marked dead — the
  // fan-out loops skip it immediately, and the vector (and possibly the
  // std::function currently executing) is compacted once the outermost
  // dispatch returns.
  const auto remove_from = [this](auto& subs, std::uint64_t target) {
    const auto it = std::find_if(subs.begin(), subs.end(),
                                 [target](const auto& sub) {
                                   return sub->id == target;
                                 });
    if (it == subs.end()) return false;
    if (dispatch_depth_ > 0) {
      (*it)->alive = false;
      sweep_pending_ = true;
    } else {
      subs.erase(it);
    }
    return true;
  };
  for (TopicState& st : topics_) {
    if (remove_from(st.typed, id) || remove_from(st.raw, id)) return;
  }
}

void PubSubBus::sweep_dead() {
  for (TopicState& st : topics_) {
    std::erase_if(st.typed, [](const auto& sub) { return !sub->alive; });
    std::erase_if(st.raw, [](const auto& sub) { return !sub->alive; });
  }
  sweep_pending_ = false;
}

void PubSubBus::reset() noexcept {
  // Sequence counters restart; subscriptions and subscription ids
  // survive (see the header for why that retention
  // is the point).
  for (TopicState& st : topics_) st.sequence = 0;
}

std::uint64_t PubSubBus::published_count(Topic topic) const noexcept {
  return topic_valid(topic) ? topics_[topic_index(topic)].sequence : 0;
}

std::size_t PubSubBus::subscriber_count(Topic topic) const noexcept {
  if (!topic_valid(topic)) return 0;
  const TopicState& st = topics_[topic_index(topic)];
  std::size_t n = 0;
  for (const auto& sub : st.typed) n += sub->alive ? 1 : 0;
  for (const auto& sub : st.raw) n += sub->alive ? 1 : 0;
  return n;
}

}  // namespace scaa::msg
