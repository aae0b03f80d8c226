#pragma once

#include <string>
#include <string_view>

/// \file json_text.hpp
/// The repo's two JSON text primitives, shared by every JSON writer
/// (RunReport, fleet report, Chrome trace, what-if replies) so they escape
/// strings and format numbers alike.

namespace istc::util {

/// Escape `s` for a JSON string literal: `"` and `\` are backslashed,
/// `\n`, `\t` and `\r` use their short escapes, and every other control
/// character below 0x20 becomes `\u00XX`.  Other bytes (UTF-8 included)
/// pass through.
std::string json_escape(std::string_view s);

/// The repo-wide deterministic double format ("%.6g").
std::string format_double(double v);

}  // namespace istc::util
