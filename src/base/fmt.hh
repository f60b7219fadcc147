/**
 * @file
 * Small string-formatting helpers. GCC 12 lacks std::format, so the
 * library uses a tiny printf-style wrapper plus stream-based helpers.
 */

#ifndef GOAT_BASE_FMT_HH
#define GOAT_BASE_FMT_HH

#include <charconv>
#include <cstdarg>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace goat {

/**
 * printf-style formatting into a std::string.
 *
 * @param fmt printf format string.
 * @return The formatted string.
 */
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vprintf-style counterpart of strFormat(). */
std::string vstrFormat(const char *fmt, va_list ap);

/** Join a list of strings with a separator. */
std::string strJoin(const std::vector<std::string> &parts,
                    const std::string &sep);

/** Split a string on a single-character separator (keeps empty fields). */
std::vector<std::string> strSplit(const std::string &s, char sep);

/** strSplit() as views into @p s, which must outlive them. */
std::vector<std::string_view> strSplitView(std::string_view s, char sep);

/** Strip leading/trailing ASCII whitespace. */
std::string strTrim(const std::string &s);

/**
 * Parse all of @p s as a number: no sign slack, no whitespace, no
 * trailing junk. Integers read in @p base, where 0 takes strtoull's
 * prefixes ("0x" hex, "0" octal, else decimal); a double ignores it.
 */
template <class T>
bool
parseNum(std::string_view s, T *out, int base = 10)
{
    if constexpr (!std::is_floating_point_v<T>) {
        if (base == 0 && s.size() > 1 && s[0] == '0') {
            bool hex = s[1] == 'x' || s[1] == 'X';
            return parseNum(s.substr(hex ? 2 : 1), out, hex ? 16 : 8);
        }
    }
    const char *end = s.data() + s.size();
    std::from_chars_result res;
    if constexpr (std::is_floating_point_v<T>)
        res = std::from_chars(s.data(), end, *out);
    else
        res = std::from_chars(s.data(), end, *out, base ? base : 10);
    return !s.empty() && res.ec == std::errc() && res.ptr == end;
}

/**
 * Append the decimal form of @p v (what operator<< would print for an
 * integer; the shortest round-tripping form for a double), without
 * printf's format parse.
 */
template <class T>
void
appendNum(std::string &out, T v)
{
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, res.ptr);
}

/** True if @p s starts with @p prefix. */
bool strStartsWith(const std::string &s, const std::string &prefix);

/** Return the final path component of a file path. */
std::string pathBasename(const std::string &path);

/**
 * Escape a string for inclusion inside a JSON string literal (quotes,
 * backslashes, control characters; no surrounding quotes added).
 */
std::string jsonEscape(const std::string &s);

} // namespace goat

#endif // GOAT_BASE_FMT_HH
