#include "common/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common/logging.hh"

namespace abndp
{

void
CliFlags::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string tok = argv[i];
        if (tok.rfind("--", 0) != 0) {
            args.push_back(tok);
            continue;
        }
        tok = tok.substr(2);
        auto eq = tok.find('=');
        if (eq != std::string::npos) {
            flags[tok.substr(0, eq)] = tok.substr(eq + 1);
        } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0)
                   != 0) {
            flags[tok] = argv[++i];
        } else {
            flags[tok] = "true";
        }
    }
}

const std::string *
CliFlags::find(const std::string &name) const
{
    asked.insert(name);
    auto it = flags.find(name);
    return it == flags.end() ? nullptr : &it->second;
}

bool
CliFlags::has(const std::string &name) const
{
    return find(name) != nullptr;
}

std::string
CliFlags::getString(const std::string &name, const std::string &defval) const
{
    const std::string *v = find(name);
    return v ? *v : defval;
}

std::uint64_t
CliFlags::getUint(const std::string &name, std::uint64_t defval) const
{
    const std::string *v = find(name);
    return v ? parseUint("--" + name, *v) : defval;
}

std::uint32_t
CliFlags::getUint32(const std::string &name, std::uint32_t defval) const
{
    const std::uint64_t v = getUint(name, defval);
    if (v > std::numeric_limits<std::uint32_t>::max())
        fatal("--", name, ": '", getString(name, ""),
              "' does not fit in 32 bits");
    return static_cast<std::uint32_t>(v);
}

std::uint64_t
CliFlags::getMebibytes(const std::string &name, std::uint64_t defMb) const
{
    const std::uint64_t mb = getUint(name, defMb);
    if (mb >> 44 != 0)
        fatal("--", name, ": '", getString(name, ""),
              "' MiB does not fit in 64 bits as bytes");
    return mb << 20;
}

double
CliFlags::getDouble(const std::string &name, double defval) const
{
    const std::string *v = find(name);
    return v ? parseDouble("--" + name, *v) : defval;
}

bool
CliFlags::getBool(const std::string &name, bool defval) const
{
    const std::string *p = find(name);
    if (!p)
        return defval;
    const std::string &v = *p;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("bad boolean flag --", name, "=", v);
}

namespace
{

/** Levenshtein distance: the typo distance between two flag names. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                               diag + (a[i - 1] != b[j - 1])});
            diag = up;
        }
    }
    return row[b.size()];
}

} // namespace

void
CliFlags::rejectUnread() const
{
    if (!args.empty())
        fatal("unexpected argument '", args.front(),
              "' (flags are spelled --name=value)");
    std::string unread;
    for (const auto &[name, value] : flags) {
        if (asked.contains(name))
            continue;
        unread += (unread.empty() ? "" : "; ") + ("unknown flag --" + name);
        // Fewest edits wins; on a tie, a name that contains the unread
        // one (--seed points to --sim-seed, not to --scale).
        auto rank = [&name](const std::string &a) {
            return std::pair(editDistance(name, a),
                             a.find(name) == std::string::npos);
        };
        auto nearest = std::min_element(
            asked.begin(), asked.end(),
            [&rank](const std::string &a, const std::string &b) {
                return rank(a) < rank(b);
            });
        if (nearest != asked.end())
            unread += " (nearest flag: --" + *nearest + ")";
    }
    if (!unread.empty())
        fatal(unread);
}

std::uint64_t
parseUint(const std::string &what, const std::string &text, int base)
{
    // strtoull skips leading space and negates a '-' modulo 2^64, so
    // the text must open with a digit.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        fatal(what, ": '", text, "' is not an unsigned integer");
    char *end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, base);
    if (end != text.c_str() + text.size())
        fatal(what, ": '", text, "' is not an unsigned integer");
    if (errno == ERANGE)
        fatal(what, ": '", text, "' does not fit in 64 bits");
    return v;
}

double
parseDouble(const std::string &what, const std::string &text)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        fatal(what, ": '", text, "' is not a number");
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        fatal(what, ": '", text, "' is not a number");
    if (errno == ERANGE)
        fatal(what, ": '", text, "' is out of double range");
    if (!std::isfinite(v))
        fatal(what, ": '", text, "' is not finite");
    return v;
}

std::string
tagPath(const std::string &path, const std::string &tag)
{
    auto slash = path.find_last_of('/');
    auto dot = path.find_last_of('.');
    if (dot == std::string::npos
        || (slash != std::string::npos && dot < slash))
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

} // namespace abndp
