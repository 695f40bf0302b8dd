#pragma once

/// @file dbc_text.hpp
/// Parser for the (subset of the) Vector DBC text format that opendbc
/// uses — the artefact the paper's attacker reverse-engineers to find
/// where a command lives inside a frame. The simulated car's database is
/// built from such text (Database::simulated_car()), so the parser reads
/// production input.
///
/// Supported grammar (one message block):
///   BO_ <id> <NAME>: <size> <sender>
///    SG_ <NAME> : <start>|<len>@<endianness><sign> (<factor>,<offset>)
///        [<min>|<max>] "<unit>" <receivers>
/// where endianness is 1 = little endian (Intel), 0 = big endian
/// (Motorola), and sign is + (unsigned) or - (signed). Comment lines (CM_),
/// attribute lines (BA_*) and the preamble are skipped.

#include <string>
#include <vector>

#include "can/dbc.hpp"

namespace scaa::can {

/// Parse DBC text into message layouts. Throws std::invalid_argument with
/// a line number on malformed input. Checksum kinds are not part of the
/// DBC grammar: every parsed message has ChecksumKind::kNone.
std::vector<DbcMessage> parse_dbc(const std::string& text);

}  // namespace scaa::can
