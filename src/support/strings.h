// String helpers for the HTL frontend and report formatting.
#ifndef LRT_SUPPORT_STRINGS_H_
#define LRT_SUPPORT_STRINGS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace lrt {

/// Splits on a single character; empty fields are preserved.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text,
                                                  char sep);

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Joins items with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& items,
                               std::string_view sep);

/// True iff `name` is a valid lrt identifier: [A-Za-z_][A-Za-z0-9_]*.
[[nodiscard]] bool is_identifier(std::string_view name);

/// Buffer size for format_double(); its longest output,
/// "-1.23456789012e-308", is 19 bytes.
inline constexpr std::size_t kFormatDoubleMax = 32;

/// Formats a double as printf's "%.12g" would, into `buffer`; returns the
/// length written (no terminator). The allocation-free form for writers.
[[nodiscard]] std::size_t format_double(double value,
                                        char (&buffer)[kFormatDoubleMax]);

/// Formats a double as printf's "%.12g" would (12 significant digits).
[[nodiscard]] std::string format_double(double value);

}  // namespace lrt

#endif  // LRT_SUPPORT_STRINGS_H_
