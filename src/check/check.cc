#include "check/check.h"

namespace pdp
{
namespace check
{

void
fail(const char *file, int line, const char *expression,
     const std::string &message)
{
    // Strip the leading path: the site is identified well enough by the
    // basename and diagnostics stay one-line.
    std::string short_file(file);
    const size_t slash = short_file.find_last_of('/');
    if (slash != std::string::npos)
        short_file.erase(0, slash + 1);

    std::ostringstream os;
    os << "PDP_CHECK failed at " << short_file << ":" << line << ": "
       << expression;
    if (!message.empty())
        os << " — " << message;
    throw CheckFailure(os.str());
}

} // namespace check
} // namespace pdp
