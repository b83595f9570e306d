/**
 * @file
 * Quickstart: simulate one synthetic benchmark under a few LLC policies
 * and print hit rates, MPKI and relative IPC.
 *
 * Usage: quickstart [benchmark] [accesses]
 *   benchmark  a name from the synthetic suite (default 436.cactusADM)
 *   accesses   measured accesses (default 2000000)
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "sim/single_core_sim.h"
#include "trace/spec_suite.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    const std::string benchmark = argc > 1 ? argv[1] : "436.cactusADM";
    if (!pdp::SpecSuite::contains(benchmark)) {
        std::cerr << "unknown benchmark '" << benchmark << "'; available:\n";
        for (const auto &info : pdp::SpecSuite::all())
            std::cerr << "  " << info.name << " - " << info.description
                      << '\n';
        return EXIT_FAILURE;
    }

    pdp::SimConfig config;
    if (argc > 2)
        config.accesses = std::strtoull(argv[2], nullptr, 10);

    std::cout << "benchmark: " << benchmark << "\n"
              << "LLC: " << config.hierarchy.llc.sizeBytes / 1024 << " KB, "
              << config.hierarchy.llc.ways << "-way\n\n";

    const std::vector<std::string> policies = {
        "LRU", "DIP", "DRRIP", "EELRU", "SDP", "PDP-3", "PDP-8",
    };

    pdp::Table table({"policy", "LLC hit rate", "MPKI", "bypass", "IPC",
                      "IPC vs LRU"});
    double lru_ipc = 0.0;
    for (const std::string &policy : policies) {
        const pdp::SimResult r =
            pdp::runSingleCore(benchmark, policy, config);
        if (policy == "LRU")
            lru_ipc = r.ipc;
        const double hit_rate = r.llcAccesses
            ? static_cast<double>(r.llcHits) / r.llcAccesses : 0.0;
        table.addRow({
            r.policy,
            pdp::Table::upct(hit_rate),
            pdp::Table::num(r.mpki, 2),
            pdp::Table::upct(r.bypassFraction),
            pdp::Table::num(r.ipc, 3),
            pdp::Table::pct(lru_ipc > 0 ? r.ipc / lru_ipc - 1.0 : 0.0),
        });
    }
    table.print(std::cout);
    return EXIT_SUCCESS;
}
