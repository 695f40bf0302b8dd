#include "cli/args.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace scaa::cli {

namespace {

/// Strict whole-token numeric parse: the entire token must be consumed.
template <typename T>
bool parse_number(const std::string& token, T& out) {
  if (token.empty()) return false;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

/// libstdc++ 12 has no floating-point from_chars overload guarantees we
/// want to rely on; go through strtod with a full-consumption check.
bool parse_number(const std::string& token, double& out) {
  if (token.empty()) return false;
  std::size_t consumed = 0;
  try {
    out = std::stod(token, &consumed);
  } catch (const std::exception&) {
    return false;
  }
  return consumed == token.size();
}

}  // namespace

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser::Flag& ArgParser::declare(const std::string& name, Kind kind,
                                    const std::string& help) {
  Flag flag;
  flag.kind = kind;
  flag.help = help;
  auto [it, inserted] = flags_.emplace(name, std::move(flag));
  if (!inserted) throw std::logic_error("duplicate flag declared: " + name);
  order_.push_back(name);
  return it->second;
}

ArgParser& ArgParser::add_int(const std::string& name, long long default_value,
                              const std::string& help, long long min_value,
                              long long max_value) {
  Flag& f = declare(name, Kind::kInt, help);
  f.int_value = default_value;
  f.int_min = min_value;
  f.int_max = max_value;
  f.default_text = std::to_string(default_value);
  return *this;
}

ArgParser& ArgParser::add_uint(const std::string& name,
                               std::uint64_t default_value,
                               const std::string& help) {
  Flag& f = declare(name, Kind::kUint, help);
  f.uint_value = default_value;
  f.default_text = std::to_string(default_value);
  return *this;
}

ArgParser& ArgParser::add_double(const std::string& name, double default_value,
                                 const std::string& help) {
  Flag& f = declare(name, Kind::kDouble, help);
  f.double_value = default_value;
  std::ostringstream os;
  os << default_value;
  f.default_text = os.str();
  return *this;
}

ArgParser& ArgParser::add_string(const std::string& name,
                                 std::string default_value,
                                 const std::string& help) {
  Flag& f = declare(name, Kind::kString, help);
  f.default_text = default_value;
  f.string_value = std::move(default_value);
  return *this;
}

ArgParser& ArgParser::add_choice(const std::string& name,
                                 std::string default_value,
                                 std::vector<std::string> choices,
                                 const std::string& help) {
  Flag& f = declare(name, Kind::kString, help);
  f.choices = std::move(choices);
  f.default_text = default_value;
  f.string_value = std::move(default_value);
  return *this;
}

ArgParser& ArgParser::add_bool(const std::string& name,
                               const std::string& help) {
  declare(name, Kind::kBool, help);
  return *this;
}

void ArgParser::assign(const std::string& name, Flag& flag,
                       const std::string& value) {
  switch (flag.kind) {
    case Kind::kInt:
      if (!parse_number(value, flag.int_value))
        throw ArgError(program_ + ": " + name + " expects an integer, got '" +
                       value + "'");
      if (flag.int_value < flag.int_min || flag.int_value > flag.int_max)
        throw ArgError(program_ + ": " + name + " must be in [" +
                       std::to_string(flag.int_min) + ", " +
                       std::to_string(flag.int_max) + "], got " + value);
      break;
    case Kind::kUint:
      if (!parse_number(value, flag.uint_value))
        throw ArgError(program_ + ": " + name +
                       " expects a non-negative integer, got '" + value + "'");
      break;
    case Kind::kDouble:
      if (!parse_number(value, flag.double_value))
        throw ArgError(program_ + ": " + name + " expects a number, got '" +
                       value + "'");
      break;
    case Kind::kString:
      if (!flag.choices.empty() &&
          std::find(flag.choices.begin(), flag.choices.end(), value) ==
              flag.choices.end()) {
        std::string allowed;
        for (const auto& c : flag.choices)
          allowed += (allowed.empty() ? "" : "|") + c;
        throw ArgError(program_ + ": " + name + " must be one of " + allowed +
                       ", got '" + value + "'");
      }
      flag.string_value = value;
      break;
    case Kind::kBool:
      throw ArgError(program_ + ": " + name + " takes no value");
  }
  flag.provided = true;
}

void ArgParser::parse_tokens(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token == "--help" || token == "-h") {
      help_requested_ = true;
      continue;
    }
    if (token.rfind("--", 0) != 0)
      throw ArgError(program_ + ": unexpected argument '" + token + "'");

    std::string name = token;
    std::string inline_value;
    bool has_inline_value = false;
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      name = token.substr(0, eq);
      inline_value = token.substr(eq + 1);
      has_inline_value = true;
    }

    const auto it = flags_.find(name);
    if (it == flags_.end())
      throw ArgError(program_ + ": unknown flag '" + name + "' (see --help)");
    Flag& flag = it->second;

    if (flag.kind == Kind::kBool) {
      if (has_inline_value)
        throw ArgError(program_ + ": " + name + " takes no value");
      flag.bool_value = true;
      flag.provided = true;
      continue;
    }

    if (has_inline_value) {
      assign(name, flag, inline_value);
      continue;
    }
    if (i + 1 >= tokens.size())
      throw ArgError(program_ + ": " + name + " requires a value");
    assign(name, flag, tokens[++i]);
  }
}

bool ArgParser::provided(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end())
    throw std::logic_error("flag never declared: " + name);
  return it->second.provided;
}

const ArgParser::Flag& ArgParser::lookup(const std::string& name,
                                         Kind kind) const {
  const auto it = flags_.find(name);
  if (it == flags_.end())
    throw std::logic_error("flag never declared: " + name);
  if (it->second.kind != kind)
    throw std::logic_error("flag accessed with the wrong type: " + name);
  return it->second;
}

long long ArgParser::get_int(const std::string& name) const {
  return lookup(name, Kind::kInt).int_value;
}

std::uint64_t ArgParser::get_uint(const std::string& name) const {
  return lookup(name, Kind::kUint).uint_value;
}

double ArgParser::get_double(const std::string& name) const {
  return lookup(name, Kind::kDouble).double_value;
}

const std::string& ArgParser::get_string(const std::string& name) const {
  return lookup(name, Kind::kString).string_value;
}

bool ArgParser::get_bool(const std::string& name) const {
  return lookup(name, Kind::kBool).bool_value;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "Usage: " << program_ << " [flags]\n";
  if (!description_.empty()) os << "  " << description_ << "\n";
  os << "\nFlags:\n";
  for (const auto& name : order_) {
    const Flag& f = flags_.at(name);
    std::string left = "  " + name;
    switch (f.kind) {
      case Kind::kInt:
      case Kind::kUint:
        left += " <N>";
        break;
      case Kind::kDouble:
        left += " <X>";
        break;
      case Kind::kString:
        if (!f.choices.empty()) {
          left += " <";
          for (std::size_t i = 0; i < f.choices.size(); ++i)
            left += (i ? "|" : "") + f.choices[i];
          left += ">";
        } else {
          left += " <VALUE>";
        }
        break;
      case Kind::kBool:
        break;
    }
    os << left;
    if (left.size() < 30) os << std::string(30 - left.size(), ' ');
    os << " " << f.help;
    if (f.kind != Kind::kBool) os << " (default: " << f.default_text << ")";
    os << "\n";
  }
  os << "  --help" << std::string(24, ' ') << " show this message\n";
  return os.str();
}

}  // namespace scaa::cli
