#include "support/strings.h"

#include <cctype>
#include <charconv>

namespace lrt {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

bool is_identifier(std::string_view name) {
  if (name.empty()) return false;
  const auto head = static_cast<unsigned char>(name.front());
  if (std::isalpha(head) == 0 && head != '_') return false;
  for (const char c : name.substr(1)) {
    const auto uc = static_cast<unsigned char>(c);
    if (std::isalnum(uc) == 0 && uc != '_') return false;
  }
  return true;
}

std::size_t format_double(double value, char (&buffer)[kFormatDoubleMax]) {
  // Defined as printf's "%.12g" in the C locale, without printf's format
  // parsing or locale lookups.
  const std::to_chars_result done =
      std::to_chars(buffer, buffer + kFormatDoubleMax, value,
                    std::chars_format::general, 12);
  return static_cast<std::size_t>(done.ptr - buffer);
}

std::string format_double(double value) {
  char buffer[kFormatDoubleMax];
  return std::string(buffer, format_double(value, buffer));
}

}  // namespace lrt
