#pragma once

/// @file args.hpp
/// Strict command-line parsing shared by scaa_campaign and every bench
/// binary.
///
/// This replaces the ad-hoc `for (int i = 1; i < argc - 1; ++i)` loops the
/// bench mains used to carry, which had two real bugs: a flag in the final
/// argv position was silently ignored (the loop never visited argv[argc-1]),
/// and `--reps banana` silently became 0 via atoi. Here every token must be
/// a declared flag, every value-taking flag must have a value, and numeric
/// values must parse in full — anything else raises ArgError with a message
/// naming the offending token.

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace scaa::cli {

/// Raised on any malformed command line. The message is user-facing.
class ArgError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Declarative flag table + strict parser.
///
///   ArgParser args("scaa_campaign table4", "Table IV");
///   args.add_int("--reps", 1, "repetitions per grid cell");
///   args.add_int("--threads", 0, "worker threads (0 = hardware)");
///   args.parse_tokens(tokens);              // throws ArgError on bad input
///   const long long reps = args.get_int("--reps");
///
/// Both `--flag value` and `--flag=value` spellings are accepted. `--help`
/// is always recognized; after parse_tokens(), help_requested() tells the
/// caller to print usage() and exit 0.
class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Declare an integer flag (strictly parsed, full token must be numeric).
  /// Values outside [min_value, max_value] are rejected at parse time with a
  /// message naming the flag — the bound check happens on the long long
  /// BEFORE any narrowing cast, so out-of-range input can never wrap.
  ArgParser& add_int(const std::string& name, long long default_value,
                     const std::string& help,
                     long long min_value = std::numeric_limits<long long>::min(),
                     long long max_value = std::numeric_limits<long long>::max());

  /// Declare an unsigned 64-bit flag (e.g. seeds).
  ArgParser& add_uint(const std::string& name, std::uint64_t default_value,
                      const std::string& help);

  /// Declare a floating-point flag.
  ArgParser& add_double(const std::string& name, double default_value,
                        const std::string& help);

  /// Declare a string flag.
  ArgParser& add_string(const std::string& name, std::string default_value,
                        const std::string& help);

  /// Declare a string flag restricted to a closed set of values.
  ArgParser& add_choice(const std::string& name, std::string default_value,
                        std::vector<std::string> choices,
                        const std::string& help);

  /// Declare a boolean flag (present = true; takes no value).
  ArgParser& add_bool(const std::string& name, const std::string& help);

  /// Parse pre-split tokens (argv[1..]). Throws ArgError on: an undeclared
  /// flag, a missing value, a malformed number, a choice outside its set,
  /// or a stray positional token.
  void parse_tokens(const std::vector<std::string>& tokens);

  /// True when --help appeared anywhere on the command line.
  bool help_requested() const noexcept { return help_requested_; }

  /// True when the flag was explicitly provided (not just defaulted).
  bool provided(const std::string& name) const;

  long long get_int(const std::string& name) const;
  std::uint64_t get_uint(const std::string& name) const;
  double get_double(const std::string& name) const;
  const std::string& get_string(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  /// Render the usage/help text.
  std::string usage() const;

 private:
  enum class Kind { kInt, kUint, kDouble, kString, kBool };

  struct Flag {
    Kind kind = Kind::kString;
    std::string help;
    std::vector<std::string> choices;  ///< empty = unrestricted
    bool provided = false;
    long long int_min = std::numeric_limits<long long>::min();
    long long int_max = std::numeric_limits<long long>::max();
    long long int_value = 0;
    std::uint64_t uint_value = 0;
    double double_value = 0.0;
    std::string string_value;
    bool bool_value = false;
    std::string default_text;  ///< rendered in usage()
  };

  Flag& declare(const std::string& name, Kind kind, const std::string& help);
  const Flag& lookup(const std::string& name, Kind kind) const;
  void assign(const std::string& name, Flag& flag, const std::string& value);

  std::string program_;
  std::string description_;
  std::vector<std::string> order_;  ///< declaration order for usage()
  std::map<std::string, Flag> flags_;
  bool help_requested_ = false;
};

}  // namespace scaa::cli
