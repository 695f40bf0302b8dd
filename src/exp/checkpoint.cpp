#include "exp/checkpoint.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string_view>

#include "util/mutex.hpp"
#include "util/serial.hpp"
#include "util/thread_annotations.hpp"

namespace scaa::exp {

namespace {

using util::double_bits;
using util::double_from_bits;
using util::fnv1a64;
using util::hex_u64;
using util::parse_hex_u64;

constexpr std::string_view kMagic = "scaa-checkpoint";
constexpr std::string_view kCrcSep = " crc=";

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw CheckpointError("checkpoint " + path + ": " + what);
}

bool parse_dec_u64(std::string_view text, std::uint64_t& out) noexcept {
  if (text.empty()) return false;
  std::uint64_t v = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, 10);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t pos = text.find(sep, begin);
    if (pos == std::string_view::npos) {
      parts.push_back(text.substr(begin));
      break;
    }
    parts.push_back(text.substr(begin, pos - begin));
    begin = pos + 1;
  }
  return parts;
}

/// "key=value" accessor: strips "<key>=" and returns the value, or nullopt
/// semantics via bool.
bool key_value(std::string_view token, std::string_view key,
               std::string_view& value) noexcept {
  if (token.size() <= key.size() + 1) return false;
  if (token.substr(0, key.size()) != key || token[key.size()] != '=')
    return false;
  value = token.substr(key.size() + 1);
  return true;
}

// --- RunningStats record: "n:mean:m2:min:max" (n decimal, bits hex16) ---

std::string encode_rs(const util::RunningStatsRecord& r) {
  return std::to_string(r.n) + ":" + hex_u64(r.mean_bits) + ":" +
         hex_u64(r.m2_bits) + ":" + hex_u64(r.min_bits) + ":" +
         hex_u64(r.max_bits);
}

bool decode_rs(std::string_view text, util::RunningStatsRecord& out) noexcept {
  const auto parts = split(text, ':');
  if (parts.size() != 5) return false;
  return parse_dec_u64(parts[0], out.n) &&
         parse_hex_u64(parts[1], out.mean_bits) &&
         parse_hex_u64(parts[2], out.m2_bits) &&
         parse_hex_u64(parts[3], out.min_bits) &&
         parse_hex_u64(parts[4], out.max_bits);
}

// --- SimulationSummary codec (results mode) -------------------------------
//
// Fixed field order; bools as 0/1, enums and counters as decimals, doubles
// as 16-digit-hex bit patterns. Any layout change here requires a
// kCheckpointFormatVersion bump.

void put_b(std::string& out, bool v) { out += v ? "1," : "0,"; }
void put_u(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
  out += ',';
}
void put_i(std::string& out, int v) {
  out += std::to_string(v);
  out += ',';
}
void put_d(std::string& out, double v) {
  out += hex_u64(double_bits(v));
  out += ',';
}

std::string encode_summary(const sim::SimulationSummary& s) {
  std::string out;
  out.reserve(360);
  put_b(out, s.any_hazard);
  put_i(out, static_cast<int>(s.first_hazard));
  put_d(out, s.first_hazard_time);
  put_b(out, s.hazard_h1);
  put_b(out, s.hazard_h2);
  put_b(out, s.hazard_h3);
  put_d(out, s.hazard_h1_time);
  put_d(out, s.hazard_h2_time);
  put_d(out, s.hazard_h3_time);
  put_b(out, s.any_accident);
  put_i(out, static_cast<int>(s.first_accident));
  put_d(out, s.first_accident_time);
  put_b(out, s.accident_a1);
  put_b(out, s.accident_a2);
  put_b(out, s.accident_a3);
  put_u(out, s.alert_events);
  put_u(out, s.steer_saturated_events);
  put_u(out, s.fcw_events);
  put_b(out, s.alert_before_hazard);
  put_u(out, s.lane_invasions);
  put_d(out, s.lane_invasion_rate);
  put_b(out, s.attack_activated);
  put_d(out, s.attack_start);
  put_d(out, s.attack_duration);
  put_d(out, s.tth);
  put_u(out, s.frames_corrupted);
  put_b(out, s.driver_engaged);
  put_d(out, s.driver_engage_time);
  put_d(out, s.driver_perception_time);
  put_d(out, s.sim_end_time);
  put_u(out, s.can_checksum_rejects);
  put_u(out, s.panda_frames_blocked);
  for (const std::uint64_t v : s.faults_fired) put_u(out, v);
  for (const std::uint64_t v : s.faults_suppressed) put_u(out, v);
  out.pop_back();  // trailing ','
  return out;
}

constexpr std::size_t kSummaryFields = 32 + 2 * fault::kFaultKindCount;

class FieldReader {
 public:
  explicit FieldReader(const std::vector<std::string_view>& fields)
      : fields_(fields) {}

  bool b(bool& out) noexcept {
    std::uint64_t v = 0;
    if (!u(v) || v > 1) return false;
    out = v == 1;
    return true;
  }
  bool u(std::uint64_t& out) noexcept {
    return next_ < fields_.size() && parse_dec_u64(fields_[next_++], out);
  }
  bool i(int& out) noexcept {
    std::string_view f;
    if (next_ >= fields_.size()) return false;
    f = fields_[next_++];
    const bool neg = !f.empty() && f[0] == '-';
    if (neg) f.remove_prefix(1);
    std::uint64_t v = 0;
    if (!parse_dec_u64(f, v) || v > 1000000) return false;
    out = neg ? -static_cast<int>(v) : static_cast<int>(v);
    return true;
  }
  bool d(double& out) noexcept {
    std::uint64_t bits = 0;
    if (next_ >= fields_.size() || !parse_hex_u64(fields_[next_++], bits))
      return false;
    out = double_from_bits(bits);
    return true;
  }

 private:
  const std::vector<std::string_view>& fields_;
  std::size_t next_ = 0;
};

bool decode_summary(std::string_view text, sim::SimulationSummary& s) noexcept {
  const auto fields = split(text, ',');
  if (fields.size() != kSummaryFields) return false;
  FieldReader r(fields);
  int first_hazard = 0;
  int first_accident = 0;
  const bool ok =
      r.b(s.any_hazard) && r.i(first_hazard) && r.d(s.first_hazard_time) &&
      r.b(s.hazard_h1) && r.b(s.hazard_h2) && r.b(s.hazard_h3) &&
      r.d(s.hazard_h1_time) && r.d(s.hazard_h2_time) && r.d(s.hazard_h3_time) &&
      r.b(s.any_accident) && r.i(first_accident) &&
      r.d(s.first_accident_time) && r.b(s.accident_a1) && r.b(s.accident_a2) &&
      r.b(s.accident_a3) && r.u(s.alert_events) &&
      r.u(s.steer_saturated_events) && r.u(s.fcw_events) &&
      r.b(s.alert_before_hazard) && r.u(s.lane_invasions) &&
      r.d(s.lane_invasion_rate) && r.b(s.attack_activated) &&
      r.d(s.attack_start) && r.d(s.attack_duration) && r.d(s.tth) &&
      r.u(s.frames_corrupted) && r.b(s.driver_engaged) &&
      r.d(s.driver_engage_time) && r.d(s.driver_perception_time) &&
      r.d(s.sim_end_time) && r.u(s.can_checksum_rejects) &&
      r.u(s.panda_frames_blocked);
  if (!ok) return false;
  for (std::uint64_t& v : s.faults_fired)
    if (!r.u(v)) return false;
  for (std::uint64_t& v : s.faults_suppressed)
    if (!r.u(v)) return false;
  s.first_hazard = static_cast<attack::HazardClass>(first_hazard);
  s.first_accident = static_cast<sim::AccidentClass>(first_accident);
  return true;
}

// --- shared file core -----------------------------------------------------

std::string frame_line(const std::string& payload) {
  return payload + std::string(kCrcSep) + hex_u64(fnv1a64(payload)) + "\n";
}

/// Validates one framed line; on success strips the crc and returns the
/// payload through @p payload.
bool unframe_line(std::string_view line, std::string_view& payload) noexcept {
  const std::size_t pos = line.rfind(kCrcSep);
  if (pos == std::string_view::npos) return false;
  std::uint64_t crc = 0;
  if (!parse_hex_u64(line.substr(pos + kCrcSep.size()), crc)) return false;
  payload = line.substr(0, pos);
  return fnv1a64(payload) == crc;
}

/// Mode-specific chunk-record parser: decodes @p tokens (everything after
/// the leading "chunk=<idx>") for @p chunk, which covers @p expected_items
/// simulations. Throws CheckpointError via its captured context on bad
/// payloads.
using ChunkParser = std::function<void(
    std::size_t chunk, std::size_t expected_items,
    const std::vector<std::string_view>& tokens)>;

struct CheckpointCore {
  // Set once before open() and immutable afterwards; safe to read from any
  // thread without the mutex.
  std::string path;
  std::string mode;
  std::uint64_t fingerprint = 0;
  std::size_t n_items = 0;
  std::size_t n_chunks = 0;
  int fd = -1;  ///< written only inside open()/open_read_only()

  /// Guards the commit path: the per-chunk completion flags and the
  /// restored-progress counters, plus serialization of file appends
  /// (commit() is called concurrently from campaign workers).
  mutable util::Mutex mutex;
  std::vector<char> complete SCAA_GUARDED_BY(mutex);  // one flag per chunk
  std::size_t restored_chunks SCAA_GUARDED_BY(mutex) = 0;
  std::size_t restored_items SCAA_GUARDED_BY(mutex) = 0;

  ~CheckpointCore() {
    if (fd >= 0) ::close(fd);
  }

  bool is_complete(std::size_t chunk) const SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    return chunk < complete.size() && complete[chunk] != 0;
  }
  std::size_t restored_chunk_count() const SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    return restored_chunks;
  }
  std::size_t restored_item_count() const SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    return restored_items;
  }

  std::size_t chunk_items(std::size_t chunk) const noexcept {
    const std::size_t begin = chunk * kCampaignChunk;
    const std::size_t end = std::min(n_items, begin + kCampaignChunk);
    return end - begin;
  }

  [[noreturn]] void corrupt(const std::string& what) const { fail(path, what); }

  std::string header_payload() const {
    return std::string(kMagic) + " format=" +
           std::to_string(kCheckpointFormatVersion) + " mode=" + mode +
           " fingerprint=" + hex_u64(fingerprint) +
           " items=" + std::to_string(n_items) +
           " chunks=" + std::to_string(n_chunks) +
           " chunk_size=" + std::to_string(kCampaignChunk);
  }

  void check_header(std::string_view payload) const {
    const auto tokens = split(payload, ' ');
    std::string_view v;
    std::uint64_t format = 0, fp = 0, items = 0, chunks = 0, chunk_size = 0;
    if (tokens.size() != 7 || tokens[0] != kMagic ||
        !key_value(tokens[1], "format", v) || !parse_dec_u64(v, format) ||
        !key_value(tokens[2], "mode", v))
      corrupt("malformed header");
    const std::string_view file_mode = v;
    if (!key_value(tokens[3], "fingerprint", v) || !parse_hex_u64(v, fp) ||
        !key_value(tokens[4], "items", v) || !parse_dec_u64(v, items) ||
        !key_value(tokens[5], "chunks", v) || !parse_dec_u64(v, chunks) ||
        !key_value(tokens[6], "chunk_size", v) || !parse_dec_u64(v, chunk_size))
      corrupt("malformed header");
    if (format != kCheckpointFormatVersion)
      corrupt("format version " + std::to_string(format) + " != supported " +
              std::to_string(kCheckpointFormatVersion));
    if (file_mode != mode)
      corrupt("mode '" + std::string(file_mode) + "' != expected '" + mode +
              "'");
    if (fp != fingerprint)
      corrupt("grid fingerprint " + hex_u64(fp) +
              " does not match this campaign's " + hex_u64(fingerprint) +
              " (different grid, seed, repetitions, or code version)");
    if (items != n_items || chunks != n_chunks || chunk_size != kCampaignChunk)
      corrupt("grid shape mismatch");
  }

  /// Parse an existing file's contents. Returns the byte offset just past
  /// the last valid line (everything after is a torn tail to truncate).
  std::size_t load(std::string_view contents, const ChunkParser& parser)
      SCAA_REQUIRES(mutex) {
    std::size_t offset = 0;
    std::size_t valid_end = 0;
    bool saw_header = false;
    while (offset < contents.size()) {
      std::size_t eol = contents.find('\n', offset);
      const bool has_newline = eol != std::string_view::npos;
      if (!has_newline) eol = contents.size();
      const std::string_view line = contents.substr(offset, eol - offset);
      const std::size_t next = has_newline ? eol + 1 : contents.size();
      const bool is_last_line = next >= contents.size();

      std::string_view payload;
      if (!has_newline || !unframe_line(line, payload)) {
        // A crash tears at most the final append; a bad line with more
        // records after it is corruption, not a torn write.
        if (is_last_line) break;
        corrupt("corrupted record at byte " + std::to_string(offset));
      }
      if (!saw_header) {
        check_header(payload);
        saw_header = true;
      } else {
        apply_chunk_record(payload, parser);
      }
      offset = next;
      valid_end = next;
    }
    if (!saw_header) return 0;  // nothing durable: caller rewrites header
    return valid_end;
  }

  void apply_chunk_record(std::string_view payload, const ChunkParser& parser)
      SCAA_REQUIRES(mutex) {
    auto tokens = split(payload, ' ');
    std::string_view v;
    std::uint64_t chunk = 0;
    if (tokens.empty() || !key_value(tokens[0], "chunk", v) ||
        !parse_dec_u64(v, chunk))
      corrupt("malformed chunk record");
    if (chunk >= n_chunks)
      corrupt("chunk index " + std::to_string(chunk) + " out of range");
    if (complete[chunk])
      corrupt("duplicate record for chunk " + std::to_string(chunk));
    tokens.erase(tokens.begin());
    parser(static_cast<std::size_t>(chunk), chunk_items(chunk), tokens);
    complete[chunk] = 1;
    ++restored_chunks;
    restored_items += chunk_items(chunk);
  }

  /// Open (and if needed create/repair) the file; loads existing records
  /// through @p parser. Implements the resume semantics documented on the
  /// checkpoint classes. Runs during construction, before the core is
  /// shared with workers, but takes the lock anyway: load() mutates the
  /// guarded completion state, and construction is not a hot path.
  void open(bool resume, const ChunkParser& parser) SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    complete.assign(n_chunks, 0);

    // Create missing parent directories so a stem like `runs/t4` works on
    // the first use — sharded fleets point every worker at one fresh
    // directory, and requiring a manual mkdir first would make the
    // "re-execute the same command in a retry loop" pattern fragile.
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);  // best effort;
      // a real problem surfaces as the ::open failure below.
    }

    std::string contents;
    {
      std::ifstream in(path, std::ios::binary);
      if (in) {
        contents.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
      }
    }
    if (!resume && !contents.empty())
      fail(path, "already exists; pass resume (--resume) to continue it or "
                 "remove the file to start over");

    const std::size_t valid_end = resume ? load(contents, parser) : 0;
    if (valid_end < contents.size()) {
      // Drop the torn tail so the next append starts on a fresh line.
      if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0)
        fail(path, std::string("truncate failed: ") + std::strerror(errno));
    }

    fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
    if (fd < 0) fail(path, std::string("open failed: ") + std::strerror(errno));
    // Exclusive advisory lock for the checkpoint's lifetime (released when
    // the fd closes): a watchdog that restarts the campaign while the old
    // process is still alive must fail cleanly here, not interleave
    // O_APPEND commits and poison the file with duplicate chunk records.
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0)
      fail(path, "another process holds this checkpoint (flock: " +
                     std::string(std::strerror(errno)) + ")");
    if (valid_end == 0) {
      append_line(frame_line(header_payload()));
      sync_directory();
    }
  }

  /// Open an existing file strictly for reading (the merge path): the file
  /// must exist, records load through @p parser with the usual validation,
  /// a torn tail is tolerated but NOT repaired (this side never writes),
  /// and the exclusive flock is still taken so reading a slice out from
  /// under a live writer fails cleanly.
  void open_read_only(const ChunkParser& parser) SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    complete.assign(n_chunks, 0);

    fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
      fail(path, std::string("cannot open slice checkpoint: ") +
                     std::strerror(errno));
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0)
      fail(path, "another process holds this checkpoint — is a shard worker "
                 "still running? (flock: " +
                     std::string(std::strerror(errno)) + ")");

    std::string contents;
    {
      std::ifstream in(path, std::ios::binary);
      if (in) {
        contents.assign(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
      }
    }
    if (contents.empty())
      fail(path, "empty file (the worker never wrote its header)");
    // load() returns the offset past the last valid line; 0 means even the
    // header failed to parse — nothing here is attributable to this grid.
    if (load(contents, parser) == 0)
      fail(path, "no valid header (torn write or not a checkpoint file)");
  }

  void append_line(const std::string& line) SCAA_REQUIRES(mutex) {
    const char* data = line.data();
    std::size_t left = line.size();
    while (left > 0) {
      const ssize_t n = ::write(fd, data, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        fail(path, std::string("write failed: ") + std::strerror(errno));
      }
      data += n;
      left -= static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0)
      fail(path, std::string("fsync failed: ") + std::strerror(errno));
  }

  /// fsync the containing directory so the file's creation itself is
  /// durable (a checkpoint that vanishes with the directory entry on power
  /// loss defeats the point).
  void sync_directory() const {
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : path.substr(0, slash == 0 ? 1 : slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0) return;  // best effort: not all filesystems allow this
    ::fsync(dfd);
    ::close(dfd);
  }

  /// Thread-safe durable append of one chunk record.
  void commit_payload(std::size_t chunk, const std::string& payload)
      SCAA_EXCLUDES(mutex) {
    const util::MutexLock lock(mutex);
    if (chunk >= n_chunks)
      fail(path, "commit: chunk index out of range");
    if (complete[chunk])
      fail(path, "commit: chunk " + std::to_string(chunk) +
                     " already committed");
    append_line(frame_line(payload));
    complete[chunk] = 1;
  }
};

std::string chunk_prefix(std::size_t chunk) {
  return "chunk=" + std::to_string(chunk) + " ";
}

/// The agg-mode chunk-record parser, shared by the writer's resume path
/// (CampaignCheckpoint) and the merge path (CampaignCheckpointReader) so
/// the two can never drift: decodes one record into (*records)[chunk].
ChunkParser agg_record_parser(CheckpointCore* core,
                              std::vector<AggregateAccumulatorRecord>* records) {
  return [records, core](std::size_t chunk, std::size_t expected_items,
                         const std::vector<std::string_view>& t) {
    AggregateAccumulatorRecord r;
    std::string_view v;
    if (t.size() != 8 || !key_value(t[0], "sims", v) ||
        !parse_dec_u64(v, r.simulations) || !key_value(t[1], "alerts", v) ||
        !parse_dec_u64(v, r.sims_with_alerts) ||
        !key_value(t[2], "hazards", v) ||
        !parse_dec_u64(v, r.sims_with_hazards) ||
        !key_value(t[3], "accidents", v) ||
        !parse_dec_u64(v, r.sims_with_accidents) ||
        !key_value(t[4], "noalert", v) ||
        !parse_dec_u64(v, r.hazards_without_alerts) ||
        !key_value(t[5], "fcw", v) || !parse_dec_u64(v, r.fcw_activations) ||
        !key_value(t[6], "inv", v) || !decode_rs(v, r.invasion_rate) ||
        !key_value(t[7], "tth", v) || !decode_rs(v, r.tth))
      core->corrupt("malformed aggregate record for chunk " +
                    std::to_string(chunk));
    if (r.simulations != expected_items)
      core->corrupt("chunk " + std::to_string(chunk) + " holds " +
                    std::to_string(r.simulations) + " simulations, expected " +
                    std::to_string(expected_items));
    (*records)[chunk] = r;
  };
}

}  // namespace

std::uint64_t grid_fingerprint(const std::vector<CampaignItem>& items) {
  util::Fnv1a64 hash;
  hash.update(std::string_view("scaa-campaign-grid"));
  hash.update(kCheckpointFormatVersion);
  hash.update(static_cast<std::uint64_t>(kCampaignChunk));
  hash.update(static_cast<std::uint64_t>(items.size()));
  for (const CampaignItem& item : items) {
    hash.update(static_cast<std::uint64_t>(item.strategy));
    hash.update(static_cast<std::uint64_t>(item.type));
    hash.update(static_cast<std::uint64_t>(item.strategic_values));
    hash.update(static_cast<std::uint64_t>(item.driver_enabled));
    hash.update(static_cast<std::uint64_t>(item.scenario_id));
    hash.update(double_bits(item.initial_gap));
    hash.update(item.seed);
    // An attached FaultPlan changes every simulation under it, so it is
    // part of the grid identity: resume/merge against a checkpoint written
    // under a different plan (or none) must be rejected.
    const bool has_plan = item.fault_plan && !item.fault_plan->empty();
    hash.update(static_cast<std::uint64_t>(has_plan));
    if (has_plan) hash.update(item.fault_plan->fingerprint());
  }
  return hash.digest();
}

// --- CampaignCheckpoint (mode=agg) ----------------------------------------

struct CampaignCheckpoint::Impl {
  CheckpointCore core;
  std::vector<AggregateAccumulatorRecord> records;  // valid iff complete
};

CampaignCheckpoint::CampaignCheckpoint(std::string path,
                                       const std::vector<CampaignItem>& items,
                                       bool resume)
    : impl_(std::make_unique<Impl>()) {
  CheckpointCore& core = impl_->core;
  core.path = std::move(path);
  core.mode = "agg";
  core.fingerprint = grid_fingerprint(items);
  core.n_items = items.size();
  core.n_chunks = (items.size() + kCampaignChunk - 1) / kCampaignChunk;
  impl_->records.resize(core.n_chunks);

  core.open(resume, agg_record_parser(&core, &impl_->records));
}

CampaignCheckpoint::~CampaignCheckpoint() = default;

std::size_t CampaignCheckpoint::chunk_count() const noexcept {
  return impl_->core.n_chunks;
}
std::size_t CampaignCheckpoint::completed_chunks() const noexcept {
  return impl_->core.restored_chunk_count();
}
std::size_t CampaignCheckpoint::completed_items() const noexcept {
  return impl_->core.restored_item_count();
}

bool CampaignCheckpoint::chunk_complete(std::size_t chunk) const {
  return impl_->core.is_complete(chunk) && chunk < impl_->records.size();
}

AggregateAccumulator CampaignCheckpoint::restored(std::size_t chunk) const {
  if (!chunk_complete(chunk))
    fail(impl_->core.path,
         "restored(): chunk " + std::to_string(chunk) + " is not complete");
  return AggregateAccumulator::from_record(impl_->records[chunk]);
}

void CampaignCheckpoint::commit(std::size_t chunk,
                                const AggregateAccumulator& acc) {
  const AggregateAccumulatorRecord r = acc.to_record();
  std::string payload = chunk_prefix(chunk);
  payload += "sims=" + std::to_string(r.simulations);
  payload += " alerts=" + std::to_string(r.sims_with_alerts);
  payload += " hazards=" + std::to_string(r.sims_with_hazards);
  payload += " accidents=" + std::to_string(r.sims_with_accidents);
  payload += " noalert=" + std::to_string(r.hazards_without_alerts);
  payload += " fcw=" + std::to_string(r.fcw_activations);
  payload += " inv=" + encode_rs(r.invasion_rate);
  payload += " tth=" + encode_rs(r.tth);
  impl_->core.commit_payload(chunk, payload);
}

// --- CampaignCheckpointReader (mode=agg, read-only merge path) ------------

struct CampaignCheckpointReader::Impl {
  CheckpointCore core;
  std::vector<AggregateAccumulatorRecord> records;  // valid iff complete
};

CampaignCheckpointReader::CampaignCheckpointReader(
    std::string path, const std::vector<CampaignItem>& items)
    : impl_(std::make_unique<Impl>()) {
  CheckpointCore& core = impl_->core;
  core.path = std::move(path);
  core.mode = "agg";
  core.fingerprint = grid_fingerprint(items);
  core.n_items = items.size();
  core.n_chunks = (items.size() + kCampaignChunk - 1) / kCampaignChunk;
  impl_->records.resize(core.n_chunks);

  core.open_read_only(agg_record_parser(&core, &impl_->records));
}

CampaignCheckpointReader::~CampaignCheckpointReader() = default;

const std::string& CampaignCheckpointReader::path() const noexcept {
  return impl_->core.path;
}
std::size_t CampaignCheckpointReader::chunk_count() const noexcept {
  return impl_->core.n_chunks;
}
std::size_t CampaignCheckpointReader::completed_chunks() const noexcept {
  return impl_->core.restored_chunk_count();
}
std::size_t CampaignCheckpointReader::completed_items() const noexcept {
  return impl_->core.restored_item_count();
}

bool CampaignCheckpointReader::chunk_complete(std::size_t chunk) const {
  return impl_->core.is_complete(chunk);
}

const AggregateAccumulatorRecord& CampaignCheckpointReader::record(
    std::size_t chunk) const {
  if (!chunk_complete(chunk))
    fail(impl_->core.path,
         "record(): chunk " + std::to_string(chunk) + " is not in this file");
  return impl_->records[chunk];
}

// --- ResultsCheckpoint (mode=results) -------------------------------------

struct ResultsCheckpoint::Impl {
  CheckpointCore core;
  std::vector<sim::SimulationSummary> summaries;  // grid-sized
};

ResultsCheckpoint::ResultsCheckpoint(std::string path,
                                     const std::vector<CampaignItem>& items,
                                     bool resume)
    : impl_(std::make_unique<Impl>()) {
  CheckpointCore& core = impl_->core;
  core.path = std::move(path);
  core.mode = "results";
  core.fingerprint = grid_fingerprint(items);
  core.n_items = items.size();
  core.n_chunks = (items.size() + kCampaignChunk - 1) / kCampaignChunk;
  impl_->summaries.resize(core.n_items);

  auto* summaries = &impl_->summaries;
  auto* corep = &core;
  core.open(resume, [summaries, corep](std::size_t chunk,
                                       std::size_t expected_items,
                                       const std::vector<std::string_view>& t) {
    std::string_view v;
    std::uint64_t count = 0;
    if (t.size() != 2 || !key_value(t[0], "n", v) || !parse_dec_u64(v, count))
      corep->corrupt("malformed results record for chunk " +
                     std::to_string(chunk));
    const auto encoded = split(t[1], ';');
    if (count != expected_items || encoded.size() != expected_items)
      corep->corrupt("chunk " + std::to_string(chunk) + " holds " +
                     std::to_string(encoded.size()) + " results, expected " +
                     std::to_string(expected_items));
    const std::size_t begin = chunk * kCampaignChunk;
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      if (!decode_summary(encoded[i], (*summaries)[begin + i]))
        corep->corrupt("malformed summary " + std::to_string(i) +
                       " in chunk " + std::to_string(chunk));
    }
  });
}

ResultsCheckpoint::~ResultsCheckpoint() = default;

std::size_t ResultsCheckpoint::chunk_count() const noexcept {
  return impl_->core.n_chunks;
}
std::size_t ResultsCheckpoint::completed_chunks() const noexcept {
  return impl_->core.restored_chunk_count();
}
std::size_t ResultsCheckpoint::completed_items() const noexcept {
  return impl_->core.restored_item_count();
}

bool ResultsCheckpoint::chunk_complete(std::size_t chunk) const {
  return impl_->core.is_complete(chunk);
}

void ResultsCheckpoint::restore_into(
    std::vector<CampaignResult>& results) const {
  const CheckpointCore& core = impl_->core;
  if (results.size() != core.n_items)
    fail(core.path, "restore_into(): result vector size " +
                        std::to_string(results.size()) + " != grid size " +
                        std::to_string(core.n_items));
  for (std::size_t c = 0; c < core.n_chunks; ++c) {
    if (!core.is_complete(c)) continue;
    const std::size_t begin = c * kCampaignChunk;
    const std::size_t end = std::min(core.n_items, begin + kCampaignChunk);
    for (std::size_t i = begin; i < end; ++i)
      results[i].summary = impl_->summaries[i];
  }
}

void ResultsCheckpoint::commit(std::size_t chunk, const CampaignResult* results,
                               std::size_t count) {
  if (count != impl_->core.chunk_items(chunk))
    fail(impl_->core.path, "commit: wrong result count for chunk " +
                               std::to_string(chunk));
  std::string payload = chunk_prefix(chunk);
  payload += "n=" + std::to_string(count) + " ";
  for (std::size_t i = 0; i < count; ++i) {
    if (i > 0) payload += ';';
    payload += encode_summary(results[i].summary);
  }
  impl_->core.commit_payload(chunk, payload);
}

}  // namespace scaa::exp
