#include "common/logging.hh"

#include <cstdlib>
#include <iostream>

namespace abndp
{
namespace logging_detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg;
    if (file && *file)
        std::cerr << " (" << file << ":" << line << ")";
    std::cerr << std::endl;
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "fatal: " << msg;
    if (file && *file)
        std::cerr << " (" << file << ":" << line << ")";
    std::cerr << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

} // namespace logging_detail
} // namespace abndp
