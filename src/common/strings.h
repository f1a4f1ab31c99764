#ifndef XBENCH_COMMON_STRINGS_H_
#define XBENCH_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace xbench {

/// Concatenates `parts` (anything convertible to std::string_view) into
/// one string sized up front. Use it instead of `a + b + c` chains over
/// temporaries, which GCC 12 at -O3 misreports as overlapping copies
/// (-Werror=restrict) and which allocate once per `+`.
template <typename... Parts>
std::string StrCat(const Parts&... parts) {
  const std::string_view views[] = {std::string_view(parts)...};
  size_t size = 0;
  for (std::string_view view : views) size += view.size();
  std::string out;
  out.reserve(size);
  for (std::string_view view : views) out.append(view);
  return out;
}

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// ASCII lower-casing (the benchmark data is ASCII by construction).
std::string ToLower(std::string_view text);

/// Case-sensitive whole-word containment: true when `word` occurs in `text`
/// delimited by non-alphanumeric characters (or string boundaries). This is
/// the uni-gram "text search" primitive used by Q17.
bool ContainsWord(std::string_view text, std::string_view word);

/// Substring containment; the n-gram/phrase primitive used by Q18.
bool ContainsPhrase(std::string_view text, std::string_view phrase);

/// Lexicographic numeric-string formatting: value padded to `width` with
/// leading zeros ("00042"). Used for generated identifiers so string sort
/// order matches numeric order.
std::string PadNumber(int64_t value, int width);

/// Parses a nonnegative decimal; returns -1 on malformed input.
int64_t ParseInt(std::string_view text);

/// Parses a decimal floating-point number; returns NaN on malformed input.
double ParseDouble(std::string_view text);

}  // namespace xbench

#endif  // XBENCH_COMMON_STRINGS_H_
