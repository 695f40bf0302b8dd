#include "can/bus.hpp"

#include <algorithm>

namespace scaa::can {

std::uint64_t CanBus::attach_tap(Tap tap) {
  const auto id = next_id_++;
  taps_.push_back({id, std::move(tap)});
  return id;
}

std::uint64_t CanBus::attach_interceptor(Interceptor interceptor) {
  const auto id = next_id_++;
  interceptors_.push_back({id, std::move(interceptor)});
  return id;
}

std::uint64_t CanBus::attach_receiver(Receiver receiver) {
  const auto id = next_id_++;
  receivers_.push_back({id, std::move(receiver)});
  return id;
}

void CanBus::detach(std::uint64_t id) {
  const auto erase_id = [id](auto& container) {
    container.erase(
        std::remove_if(container.begin(), container.end(),
                       [id](const auto& e) { return e.id == id; }),
        container.end());
  };
  erase_id(taps_);
  erase_id(interceptors_);
  erase_id(receivers_);
}

void CanBus::set_fault_hook(FaultHook hook) {
  fault_hook_ = std::move(hook);
  delayed_.reserve(kDelayQueueCapacity);
}

bool CanBus::send(CanFrame frame) {
  ++sent_;
  if (frame.dlc > kMaxDlc) {
    // Not a classic CAN frame: no node sees it, so nothing downstream
    // (fault hook, interceptors, taps, receivers) indexes past data[7].
    ++malformed_;
    return false;
  }
  if (fault_active_ && fault_hook_) {
    const FaultVerdict verdict = fault_hook_(frame);
    if (verdict.action == FaultVerdict::Action::kDrop)
      return false;  // physical loss: interceptors and taps never see it
    if (verdict.action == FaultVerdict::Action::kDelay) {
      if (delayed_.size() < kDelayQueueCapacity) {
        delayed_.push_back({frame, current_tick_ + verdict.delay_ticks});
        return true;  // accepted; pump_delayed() will deliver it
      }
      ++delay_overflows_;  // queue full: degrade to immediate delivery
    }
  }
  return dispatch(frame);
}

void CanBus::pump_delayed(std::uint64_t tick) {
  current_tick_ = tick;
  if (delayed_.empty()) return;
  // Deliver due frames in send order. dispatch() may trigger new sends
  // (which can append to delayed_ with a strictly later due tick), so the
  // loop re-reads size() and copies each frame out before dispatching.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < delayed_.size(); ++i) {
    if (delayed_[i].due_tick <= tick) {
      const CanFrame frame = delayed_[i].frame;
      dispatch(frame);
    } else {
      if (kept != i) delayed_[kept] = delayed_[i];
      ++kept;
    }
  }
  delayed_.resize(kept);
}

bool CanBus::dispatch(CanFrame frame) {
  for (const auto& entry : interceptors_) {
    if (!entry.fn(frame)) {
      ++dropped_;
      return false;
    }
  }
  for (const auto& entry : taps_) entry.fn(frame);
  for (const auto& entry : receivers_) entry.fn(frame);
  return true;
}

}  // namespace scaa::can
