/**
 * @file
 * Table 1 — Summary of scheduling policies and their assumptions,
 * generated from the policies' own capability metadata.
 */

#include "bench_common.h"

#include "common/table.h"
#include "core/policy_factory.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Table 1", "summary of scheduling policies");

    TextTable table("Policies and assumptions",
                    {"policy", "job length", "carbon-aware",
                     "performance-aware", "suspend-resume"});
    auto csv = bench::openCsv(
        "table1_policy_summary",
        {"policy", "job_length", "carbon_aware",
         "performance_aware", "suspend_resume"});
    for (const std::string &name : allPolicyNames()) {
        const PolicyPtr policy = makePolicy(name);
        const PolicyCapabilities caps = describePolicy(*policy);
        const auto flag = [](bool b) {
            return std::string(b ? "Yes" : "-");
        };
        table.addRow({caps.name, caps.job_length,
                      flag(caps.carbon_aware),
                      flag(caps.performance_aware),
                      flag(caps.suspend_resume)});
        csv.writeRow({caps.name, caps.job_length,
                      flag(caps.carbon_aware),
                      flag(caps.performance_aware),
                      flag(caps.suspend_resume)});
    }
    table.print(std::cout);
    return 0;
}
