/**
 * @file
 * Construction of replacement policies from textual specs, so benches,
 * examples and tests share one naming scheme.
 *
 * Recognized specs:
 *   LRU | FIFO | Random | LIP | BIP | DIP | SRRIP | BRRIP | DRRIP |
 *   EELRU | SDP | SHiP | PDP-2 | PDP-3 | PDP-8 | PDP-8-NB |
 *   SPDP-B:<pd> | SPDP-NB:<pd> | PDP-1INS
 */

#ifndef PDP_SIM_POLICY_FACTORY_H
#define PDP_SIM_POLICY_FACTORY_H

#include <memory>
#include <string>
#include <vector>

#include "policies/replacement_policy.h"

namespace pdp
{

/** Build a policy from its spec; throws std::invalid_argument naming the
 *  spec if the name is unknown, an argument is not a whole unsigned
 *  decimal, a static PD lies outside [1, d_max], or a policy that takes
 *  no argument is given one. */
std::unique_ptr<ReplacementPolicy> makePolicy(const std::string &spec);

/** The single-core comparison roster of Fig. 10, its DIP baseline
 *  first. */
std::vector<std::string> fig10PolicyNames();

} // namespace pdp

#endif // PDP_SIM_POLICY_FACTORY_H
