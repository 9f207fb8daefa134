/**
 * @file
 * gem5-style status and error reporting: panic/fatal/warn.
 *
 * panic() is for internal invariant violations (simulator bugs) and
 * aborts; fatal() is for user/configuration errors and exits cleanly.
 */

#ifndef ABNDP_COMMON_LOGGING_HH
#define ABNDP_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace abndp
{

namespace logging_detail
{

/** Concatenate a heterogeneous argument pack into one string. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace logging_detail

/** Abort on an internal simulator invariant violation. */
template <typename... Args>
[[noreturn]] void
panic(Args&&... args)
{
    logging_detail::panicImpl("", 0,
        logging_detail::concat(std::forward<Args>(args)...));
}

/** Exit on an unrecoverable user/configuration error. */
template <typename... Args>
[[noreturn]] void
fatal(Args&&... args)
{
    logging_detail::fatalImpl("", 0,
        logging_detail::concat(std::forward<Args>(args)...));
}

/** Warn about suspicious but non-fatal conditions. */
template <typename... Args>
void
warn(Args&&... args)
{
    logging_detail::warnImpl(
        logging_detail::concat(std::forward<Args>(args)...));
}

/**
 * Internal assertion that reports through panic(). Enabled in all build
 * types: simulation correctness matters more than the cycle cost.
 */
#define abndp_assert(cond, ...)                                            \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::abndp::panic("assertion failed: " #cond " at ", __FILE__,    \
                           ":", __LINE__, " ", ##__VA_ARGS__);             \
        }                                                                  \
    } while (0)

} // namespace abndp

#endif // ABNDP_COMMON_LOGGING_HH
