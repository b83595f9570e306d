/**
 * @file
 * Shared-cache partitioning demo: run one multiprogrammed workload under
 * TA-DRRIP, UCP, PIPP and PD-based partitioning on a shared LLC, and
 * show per-thread IPC, the W/T/H metrics and the per-thread protecting
 * distances the PDP policy converged to.
 *
 * Usage: shared_cache_partitioning [cores] [workload-index]
 */

#include <cstdlib>
#include <iostream>

#include "cache/hierarchy.h"
#include "partition/pdp_partition.h"
#include "sim/multi_core_sim.h"
#include "util/table.h"

using namespace pdp;

int
main(int argc, char **argv)
{
    const unsigned cores = argc > 1
        ? static_cast<unsigned>(std::atoi(argv[1])) : 4;
    const unsigned index = argc > 2
        ? static_cast<unsigned>(std::atoi(argv[2])) : 0;
    if (cores < 1 || cores > CacheStats::kMaxThreads) {
        std::cerr << "cores must be in [1, " << CacheStats::kMaxThreads
                  << "]\n";
        return EXIT_FAILURE;
    }

    const auto workloads = randomWorkloads(index + 1, cores);
    const WorkloadSpec &workload = workloads[index];

    MultiCoreConfig config;
    config.cores = cores;
    config.accessesPerThread = 600'000;
    config.warmupPerThread = 200'000;

    std::cout << cores << "-core workload: " << workload.label() << "\n"
              << "shared LLC: " << 2 * cores << " MB, 16-way\n\n";

    Table per_thread([&] {
        std::vector<std::string> header = {"thread", "benchmark"};
        for (const char *p : {"TA-DRRIP", "UCP", "PIPP", "PDP-3"})
            header.push_back(std::string(p) + " IPC");
        return header;
    }());

    std::vector<MultiCoreResult> results;
    for (const char *policy : {"TA-DRRIP", "UCP", "PIPP", "PDP-3"})
        results.push_back(runMultiCore(workload, policy, config));

    for (unsigned t = 0; t < cores; ++t) {
        std::vector<std::string> row = {std::to_string(t),
                                        workload.benchmarks[t]};
        for (const auto &r : results)
            row.push_back(Table::num(r.threads[t].ipc, 3));
        per_thread.addRow(row);
    }
    per_thread.print(std::cout);

    std::cout << "\naggregate metrics (normalized to TA-DRRIP):\n\n";
    Table metrics({"policy", "weighted IPC", "throughput", "fairness"});
    for (const auto &r : results) {
        metrics.addRow({r.policy,
                        Table::pct(r.weightedIpc /
                                   results[0].weightedIpc - 1.0),
                        Table::pct(r.throughput /
                                   results[0].throughput - 1.0),
                        Table::pct(r.harmonicFairness /
                                   results[0].harmonicFairness - 1.0)});
    }
    metrics.print(std::cout);

    // Re-run the PDP policy with introspection to show per-thread PDs.
    HierarchyConfig hcfg;
    hcfg.numThreads = cores;
    hcfg.llc = CacheConfig::paperLlc(cores);
    auto policy = makePdpPartition(cores, 3);
    const PdpPartitionPolicy *pdp = policy.get();
    Hierarchy hierarchy(hcfg, std::move(policy));
    auto generators = instantiate(workload);
    for (uint64_t i = 0;
         i < config.warmupPerThread + config.accessesPerThread; ++i)
        for (unsigned t = 0; t < cores; ++t)
            hierarchy.access(generators[t]->next());

    std::cout << "\nper-thread protecting distances chosen by the E_m "
                 "search:\n\n";
    Table pds({"thread", "benchmark", "PD"});
    for (unsigned t = 0; t < cores; ++t)
        pds.addRow({std::to_string(t), workload.benchmarks[t],
                    std::to_string(pdp->threadPds()[t])});
    pds.print(std::cout);
    return EXIT_SUCCESS;
}
