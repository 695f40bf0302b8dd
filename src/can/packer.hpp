#pragma once

/// @file packer.hpp
/// Frame construction and parsing against a DBC database
/// (the CanPacker / CanParser pair, as in OpenPilot).
///
/// Both classes have two faces:
///  - the precompiled path (MessageHandle + flat value arrays) used by the
///    100 Hz simulation loop: zero heap allocation and zero string
///    comparison per frame;
///  - the string-keyed path, kept as a thin compatibility shim that
///    resolves names through the database schema and delegates to the
///    precompiled path.

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "can/checksum.hpp"
#include "can/database.hpp"

namespace scaa::can {

/// Sentinel for "signal not set" in a flat pack buffer: the signal's bits
/// stay zero on the wire, exactly like omitting the name from the
/// string-keyed map (raw zero, not physical zero — they differ for signals
/// with a non-zero offset).
inline constexpr double kSignalUnset =
    std::numeric_limits<double>::quiet_NaN();

/// Builds checksummed, counted frames from signal values.
class CanPacker {
 public:
  /// The database is borrowed and must outlive the packer.
  explicit CanPacker(const Database& db);

  /// Precompiled path: @p values[i] is the physical value of signal i of
  /// @p msg (the database's declaration order). Entries beyond
  /// values.size(), and entries equal to kSignalUnset, leave the signal's
  /// bits zero. Applies checksum and advances the per-message rolling
  /// counter. No per-frame heap allocation or string comparison.
  /// @p msg must be a valid handle from this packer's database.
  CanFrame pack(MessageHandle msg, std::span<const double> values);

  /// Compatibility shim: build a frame for @p message_name from named
  /// physical values. Signals not listed are encoded as zero. Throws
  /// std::invalid_argument for unknown message or signal names.
  CanFrame pack(const std::string& message_name,
                const std::map<std::string, double>& values);

  /// Restart every per-message rolling counter at 0, as if freshly
  /// constructed against the same database. No allocation.
  void reset_counters() noexcept;

 private:
  const Database* db_;
  std::vector<std::uint8_t> counters_;  ///< per message index (dense)
  std::vector<double> scratch_;         ///< shim's flat value buffer
};

/// Decodes frames and validates integrity.
class CanParser {
 public:
  explicit CanParser(const Database& db);

  // Non-copyable: parse_flat() hands out views into this parser's scratch
  // buffer, which a copy would alias (each consumer owns its own parser).
  CanParser(const CanParser&) = delete;
  CanParser& operator=(const CanParser&) = delete;

  /// Flat decoded result of one frame. The values span points into the
  /// parser's scratch buffer: valid until the next parse call.
  struct ParsedFrame {
    MessageHandle handle;
    const DbcMessage* message = nullptr;  ///< layout (borrowed from the db)
    std::span<const double> values;       ///< indexed by signal index
    bool checksum_ok = true;
    bool counter_ok = true;  ///< counter advanced as expected
  };

  /// Integrity-only parse: resolve the id and check the checksum and the
  /// counter (advancing the counter history exactly as parse_flat does)
  /// without decoding any signal; `values` is empty. A consumer that
  /// reads one signal decodes it from the frame itself (DbcSignal::decode).
  /// Returns nullptr for unknown ids; otherwise a pointer to internal
  /// state overwritten by the next call.
  const ParsedFrame* validate(const CanFrame& frame);

  /// Precompiled path: parse a frame with zero per-frame heap allocation.
  /// Returns nullptr for unknown ids; otherwise a pointer to internal
  /// state overwritten by the next call. Counter continuity is tracked per
  /// message across calls.
  const ParsedFrame* parse_flat(const CanFrame& frame);

  /// Decoded result of one frame (string-keyed compatibility shim).
  struct Parsed {
    const DbcMessage* message = nullptr;  ///< layout (borrowed from the db)
    std::map<std::string, double> values; ///< signal name -> physical value
    bool checksum_ok = true;
    bool counter_ok = true;               ///< counter advanced as expected
  };

  /// Parse a frame into named values. Unknown ids return std::nullopt.
  std::optional<Parsed> parse(const CanFrame& frame);

  /// Number of counter discontinuities seen so far.
  std::uint64_t counter_errors() const noexcept { return counter_errors_; }

  /// Forget all per-message counter history and zero the error counter,
  /// as if freshly constructed against the same database. No allocation.
  void reset() noexcept;

 private:
  /// validate() on the already loaded payload word.
  const ParsedFrame* check(const CanFrame& frame, std::uint64_t word);

  const Database* db_;
  std::vector<std::int16_t> last_counter_;  ///< per message index; -1 = none
  std::vector<double> values_;              ///< parse_flat scratch
  ParsedFrame flat_;
  std::uint64_t counter_errors_ = 0;
};

}  // namespace scaa::can
