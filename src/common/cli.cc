#include "common/cli.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

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

bool
CliFlags::has(const std::string &name) const
{
    return flags.count(name) > 0;
}

std::string
CliFlags::getString(const std::string &name, const std::string &defval) const
{
    auto it = flags.find(name);
    return it == flags.end() ? defval : it->second;
}

std::uint64_t
CliFlags::getUint(const std::string &name, std::uint64_t defval) const
{
    auto it = flags.find(name);
    return it == flags.end() ? defval : parseUint("--" + name, it->second);
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
    auto it = flags.find(name);
    return it == flags.end() ? defval
                             : parseDouble("--" + name, it->second);
}

bool
CliFlags::getBool(const std::string &name, bool defval) const
{
    auto it = flags.find(name);
    if (it == flags.end())
        return defval;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    fatal("bad boolean flag --", name, "=", v);
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
