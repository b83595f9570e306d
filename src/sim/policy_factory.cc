#include "sim/policy_factory.h"

#include <optional>
#include <stdexcept>

#include "core/pdp_policy.h"
#include "policies/basic.h"
#include "policies/dip.h"
#include "policies/eelru.h"
#include "policies/rrip.h"
#include "policies/sdp.h"
#include "util/parse.h"

namespace pdp
{

namespace
{

/** The policies whose spec is a bare name; nullptr if `base` is not
 *  one of them. */
std::unique_ptr<ReplacementPolicy>
makeNamedPolicy(const std::string &base)
{
    if (base == "LRU")
        return std::make_unique<LruPolicy>();
    if (base == "LIP")
        return makeLip();
    if (base == "BIP")
        return makeBip();
    if (base == "DIP")
        return makeDip();
    if (base == "SRRIP")
        return makeSrrip();
    if (base == "BRRIP")
        return makeBrrip();
    if (base == "DRRIP")
        return makeDrrip();
    if (base == "EELRU")
        return std::make_unique<EelruPolicy>();
    if (base == "SDP")
        return std::make_unique<SdpPolicy>();
    if (base == "PDP-2")
        return makeDynamicPdp(2);
    if (base == "PDP-3")
        return makeDynamicPdp(3);
    if (base == "PDP-8")
        return makeDynamicPdp(8);
    if (base == "PDP-8-NB")
        return makeDynamicPdp(8, /*bypass=*/false);
    if (base == "PDP-1INS") {
        PdpParams params;
        params.insertWithPdOne = true;
        return std::make_unique<PdpPolicy>(params);
    }
    return nullptr;
}

} // namespace

std::unique_ptr<ReplacementPolicy>
makePolicy(const std::string &spec)
{
    const size_t colon = spec.find(':');
    const std::string base = spec.substr(0, colon);
    std::optional<unsigned long> arg;
    if (colon != std::string::npos) {
        arg = parseUnsigned(spec.c_str() + colon + 1);
        if (!arg)
            throw std::invalid_argument("policy spec " + spec +
                                        ": argument is not an unsigned "
                                        "decimal integer");
    }

    if (base == "SPDP-B" || base == "SPDP-NB") {
        const uint32_t d_max = PdpParams{}.dMax;
        const unsigned long pd = arg.value_or(64);
        if (pd < 1 || pd > d_max)
            throw std::invalid_argument(
                "policy spec " + spec + ": static PD " + std::to_string(pd) +
                " outside [1, d_max = " + std::to_string(d_max) + "]");
        const auto static_pd = static_cast<uint32_t>(pd);
        return base == "SPDP-B" ? makeSpdpB(static_pd)
                                : makeSpdpNb(static_pd);
    }

    auto policy = makeNamedPolicy(base);
    if (!policy)
        throw std::invalid_argument("unknown policy spec: " + spec);
    if (arg)
        throw std::invalid_argument("policy spec " + spec + ": " + base +
                                    " takes no argument");
    return policy;
}

std::vector<std::string>
fig10PolicyNames()
{
    return {"DIP", "DRRIP", "EELRU", "SDP", "PDP-2", "PDP-3", "PDP-8"};
}

} // namespace pdp
