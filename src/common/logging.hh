/**
 * @file
 * gem5-style status and error reporting: panic/fatal/warn.
 *
 * panic() is for internal invariant violations (simulator bugs) and
 * aborts; fatal() is for user/configuration errors and exits cleanly.
 */

#ifndef ABNDP_COMMON_LOGGING_HH
#define ABNDP_COMMON_LOGGING_HH

#include <new>
#include <sstream>
#include <string>
#include <utility>

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
 * Run @p body and end an allocation failure in one fatal() naming
 * @p input. For front ends whose input the user sizes: an input too
 * large for the host is refused like any other bad input, not left to
 * an uncaught std::bad_alloc.
 */
template <typename F>
decltype(auto)
fatalIfOutOfMemory(const std::string &input, F &&body)
{
    try {
        return std::forward<F>(body)();
    } catch (const std::bad_alloc &) {
        fatal(input, " does not fit in host memory (allocation failed)");
    }
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
