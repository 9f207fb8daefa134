/**
 * @file
 * Minimal command-line flag parser used by the benchmark and example
 * binaries. Supports "--name=value" and "--name value" forms. Every
 * accessor records the name it asks for, so a binary can refuse the
 * flags it never read (rejectUnread) instead of running without them.
 */

#ifndef ABNDP_COMMON_CLI_HH
#define ABNDP_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace abndp
{

/** Parsed command-line flags with typed, defaulted accessors. */
class CliFlags
{
  public:
    CliFlags() = default;
    CliFlags(int argc, char **argv) { parse(argc, argv); }

    /** Parse argv; every flag is kept, positionals aside. */
    void parse(int argc, char **argv);

    /** Whether the flag was given; counts as reading it. */
    bool has(const std::string &name) const;

    std::string getString(const std::string &name,
                          const std::string &defval) const;
    /** The flag's value through parseUint(), or @p defval if absent. */
    std::uint64_t getUint(const std::string &name,
                          std::uint64_t defval) const;
    /**
     * getUint() for a 32-bit target: fatal() naming the flag and the
     * value when it does not fit, where a cast would drop the high
     * bits and run with the wrapped value.
     */
    std::uint32_t getUint32(const std::string &name,
                            std::uint32_t defval) const;
    /**
     * A size flag given in MiB (@p defMb if absent), returned in bytes:
     * fatal() naming the flag and the value past 2^44 - 1 MiB, where
     * the shift to bytes would wrap 64 bits.
     */
    std::uint64_t getMebibytes(const std::string &name,
                               std::uint64_t defMb) const;
    /** The flag's value through parseDouble(), or @p defval if absent. */
    double getDouble(const std::string &name, double defval) const;
    bool getBool(const std::string &name, bool defval) const;

    const std::vector<std::string> &positional() const { return args; }

    /**
     * fatal() on the first positional argument, or on every flag that
     * no accessor (has() included) asked for, naming each with the
     * nearest name that was asked for. A binary calls it after its
     * last read and before its first run, so a misspelled or unknown
     * flag exits 1 instead of running the default experiment.
     */
    void rejectUnread() const;

  private:
    std::map<std::string, std::string> flags;
    std::vector<std::string> args;
    /** Every name an accessor asked for, given or not. */
    mutable std::set<std::string> asked;

    /** The flag's value, or nullptr if absent; records the read. */
    const std::string *find(const std::string &name) const;
};

/**
 * Parse all of @p text as an unsigned integer in @p base (0 = C
 * prefixes: "0x" hex, a leading "0" octal). fatal() naming @p what and
 * the text on anything else: an empty string, leading space, a sign,
 * trailing characters, or a value past 64 bits.
 */
std::uint64_t parseUint(const std::string &what, const std::string &text,
                        int base = 0);

/**
 * Parse all of @p text as a finite double (decimal or hexfloat).
 * fatal() naming @p what and the text on anything else: an empty
 * string, leading space, trailing characters, a magnitude strtod()
 * flags as out of range, infinity or NaN.
 */
double parseDouble(const std::string &what, const std::string &text);

/**
 * Insert @p tag into @p path before its extension — "out/trace.json"
 * with tag "pr.O" becomes "out/trace.pr.O.json". Paths without an
 * extension get ".tag" appended. Used by the multi-run front ends to
 * derive per-design output files from one --trace-out/--stats-out flag.
 */
std::string tagPath(const std::string &path, const std::string &tag);

} // namespace abndp

#endif // ABNDP_COMMON_CLI_HH
