#include "fault/plan.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/serial.hpp"

namespace scaa::fault {

namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr KindName kKindNames[kFaultKindCount] = {
    {FaultKind::kCanDrop, "can_drop"},
    {FaultKind::kCanDelay, "can_delay"},
    {FaultKind::kCanCorrupt, "can_corrupt"},
    {FaultKind::kCanBusOff, "can_busoff"},
    {FaultKind::kSensorDropout, "sensor_dropout"},
    {FaultKind::kSensorFreeze, "sensor_freeze"},
    {FaultKind::kSensorNoise, "sensor_noise"},
    {FaultKind::kEcuStall, "ecu_stall"},
};

struct TargetName {
  FaultTarget target;
  const char* name;
};

constexpr TargetName kTargetNames[4] = {
    {FaultTarget::kAll, "all"},
    {FaultTarget::kGps, "gps"},
    {FaultTarget::kCamera, "camera"},
    {FaultTarget::kRadar, "radar"},
};

/// Strict double parse: the whole token must be consumed and the value
/// must be finite (strtod also reads "nan" and "inf").
bool parse_double(std::string_view text, double& out) noexcept {
  if (text.empty() || text.size() > 64) return false;
  char buf[65];
  text.copy(buf, text.size());
  buf[text.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf, &end);
  if (end != buf + text.size() || errno == ERANGE || !std::isfinite(value))
    return false;
  out = value;
  return true;
}

bool parse_u32(std::string_view text, std::uint32_t& out) noexcept {
  if (text.empty() || text.size() > 10) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > 0xFFFFFFFFull) return false;
  }
  out = static_cast<std::uint32_t>(value);
  return true;
}

[[noreturn]] void fail(std::string_view path, std::size_t line,
                       const std::string& reason) {
  std::ostringstream msg;
  msg << path << ":" << line << ": " << reason;
  throw FaultPlanError(msg.str());
}

}  // namespace

bool parse_fault_kind(std::string_view text, FaultKind& out) noexcept {
  for (const auto& entry : kKindNames) {
    if (text == entry.name) {
      out = entry.kind;
      return true;
    }
  }
  return false;
}

bool parse_fault_target(std::string_view text, FaultTarget& out) noexcept {
  for (const auto& entry : kTargetNames) {
    if (text == entry.name) {
      out = entry.target;
      return true;
    }
  }
  return false;
}

void FaultPlan::add(const FaultSpec& spec) {
  if (size_ >= kMaxFaults) {
    throw FaultPlanError("FaultPlan: more than " +
                         std::to_string(kMaxFaults) + " faults");
  }
  specs_[size_++] = spec;
}

std::uint64_t FaultPlan::fingerprint() const noexcept {
  util::Fnv1a64 hash;
  hash.update("scaa-fault-plan");
  hash.update(static_cast<std::uint64_t>(size_));
  for (std::size_t i = 0; i < size_; ++i) {
    const FaultSpec& s = specs_[i];
    hash.update(static_cast<std::uint64_t>(s.kind));
    hash.update(util::double_bits(s.t0));
    hash.update(util::double_bits(s.t1));
    hash.update(util::double_bits(s.rate));
    hash.update(util::double_bits(s.magnitude));
    hash.update(util::double_bits(s.bias));
    hash.update(static_cast<std::uint64_t>(s.ticks));
    hash.update(static_cast<std::uint64_t>(s.target));
  }
  return hash.digest();
}

FaultPlan FaultPlan::parse_text(std::string_view text, std::string_view path) {
  FaultPlan plan;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    const std::size_t hash_pos = line.find('#');
    if (hash_pos != std::string_view::npos) line = line.substr(0, hash_pos);

    // Tokenize on whitespace.
    FaultSpec spec;
    bool have_kind = false;
    std::size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                                 line[i] == '\r'))
        ++i;
      std::size_t start = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
             line[i] != '\r')
        ++i;
      if (i == start) break;
      const std::string_view token = line.substr(start, i - start);

      if (!have_kind) {
        if (!parse_fault_kind(token, spec.kind)) {
          fail(path, line_no,
               "unknown fault kind '" + std::string(token) + "'");
        }
        have_kind = true;
        continue;
      }

      const std::size_t eq = token.find('=');
      if (eq == std::string_view::npos) {
        fail(path, line_no,
             "expected key=value, got '" + std::string(token) + "'");
      }
      const std::string_view key = token.substr(0, eq);
      const std::string_view value = token.substr(eq + 1);
      bool ok = true;
      if (key == "window") {
        const std::size_t colon = value.find(':');
        ok = colon != std::string_view::npos &&
             parse_double(value.substr(0, colon), spec.t0) &&
             parse_double(value.substr(colon + 1), spec.t1) &&
             spec.t0 <= spec.t1;
      } else if (key == "rate") {
        ok = parse_double(value, spec.rate) && spec.rate >= 0.0 &&
             spec.rate <= 1.0;
      } else if (key == "mag") {
        ok = parse_double(value, spec.magnitude) && spec.magnitude >= 0.0;
      } else if (key == "bias") {
        ok = parse_double(value, spec.bias);
      } else if (key == "ticks") {
        ok = parse_u32(value, spec.ticks);
      } else if (key == "target") {
        ok = parse_fault_target(value, spec.target);
      } else {
        fail(path, line_no, "unknown key '" + std::string(key) + "'");
      }
      if (!ok) {
        fail(path, line_no, "bad value for '" + std::string(key) + "': '" +
                                std::string(value) + "'");
      }
    }

    if (!have_kind) continue;  // blank or comment-only line
    if (plan.size() >= kMaxFaults) {
      fail(path, line_no,
           "more than " + std::to_string(kMaxFaults) + " faults");
    }
    plan.add(spec);
  }
  return plan;
}

FaultPlan FaultPlan::parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw FaultPlanError(path + ": cannot open fault plan file");
  std::ostringstream text;
  text << in.rdbuf();
  return parse_text(text.str(), path);
}

}  // namespace scaa::fault
