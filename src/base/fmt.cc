#include "base/fmt.hh"

#include <cctype>
#include <cstdio>

namespace goat {

std::string
vstrFormat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (n <= 0)
        return "";
    std::string out(static_cast<size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap);
    return out;
}

std::string
strFormat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string out = vstrFormat(fmt, ap);
    va_end(ap);
    return out;
}

std::string
strJoin(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::vector<std::string>
strSplit(const std::string &s, char sep)
{
    std::vector<std::string> out;
    for (std::string_view f : strSplitView(s, sep))
        out.emplace_back(f);
    return out;
}

std::vector<std::string_view>
strSplitView(std::string_view s, char sep)
{
    std::vector<std::string_view> out;
    for (size_t pos = 0;;) {
        size_t at = s.find(sep, pos);
        out.push_back(s.substr(pos, at - pos));
        if (at == std::string_view::npos)
            return out;
        pos = at + 1;
    }
}

std::string
strTrim(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
strStartsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
pathBasename(const std::string &path)
{
    size_t pos = path.find_last_of('/');
    return pos == std::string::npos ? path : path.substr(pos + 1);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strFormat("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

} // namespace goat
