/**
 * @file
 * The PDP_CHECK / PDP_DCHECK invariant-checking macros.
 *
 * PDP_CHECK(cond, msg...) verifies `cond` in every build.  On failure it
 * formats the expression, the file:line site and the streamed message
 * parts and throws a CheckFailure: a failed check never lets the caller
 * run on past it.
 *
 * PDP_DCHECK is the same contract but compiles to nothing unless
 * PDP_DCHECK_ENABLED is defined (Debug builds define it); use it on hot
 * paths where an always-on branch would be measurable.
 *
 * Message parts are streamed, not printf-formatted:
 *
 *   PDP_CHECK(rpd <= maxRpd_, "set ", set, " way ", way, " rpd=", rpd);
 */

#ifndef PDP_CHECK_CHECK_H
#define PDP_CHECK_CHECK_H

#include <sstream>
#include <stdexcept>
#include <string>

namespace pdp
{

/** Thrown by a failed PDP_CHECK and by an audit pass that finds a
 *  violated invariant. */
class CheckFailure : public std::logic_error
{
  public:
    explicit CheckFailure(const std::string &what) : std::logic_error(what) {}
};

namespace check
{

/** Throw the CheckFailure of one failed check.  Called by the macros. */
[[noreturn]] void fail(const char *file, int line, const char *expression,
                       const std::string &message);

namespace detail
{

/** Stream all message parts into one string ("" for no parts). */
template <typename... Parts>
std::string
formatMessage(Parts &&...parts)
{
    if constexpr (sizeof...(parts) == 0) {
        return {};
    } else {
        std::ostringstream os;
        (os << ... << parts);
        return os.str();
    }
}

} // namespace detail

} // namespace check
} // namespace pdp

/** Always-on invariant check with streamed message parts. */
#define PDP_CHECK(cond, ...)                                               \
    do {                                                                   \
        if (!(cond)) [[unlikely]]                                          \
            ::pdp::check::fail(__FILE__, __LINE__, #cond,                  \
                               ::pdp::check::detail::formatMessage(        \
                                   __VA_ARGS__));                          \
    } while (0)

#ifdef PDP_DCHECK_ENABLED
#define PDP_DCHECK(cond, ...) PDP_CHECK(cond, __VA_ARGS__)
#else
/** Compiled out; `false &&` keeps the operands ODR-used without
 *  evaluating them, so no -Wunused warnings appear in Release. */
#define PDP_DCHECK(cond, ...)                                              \
    do {                                                                   \
        if (false && (cond)) {                                             \
        }                                                                  \
    } while (0)
#endif

#endif // PDP_CHECK_CHECK_H
