/**
 * @file
 * Config-file workflow: load a design directory (the reference
 * tool's `--design_dir` flow) into an `AnalysisSession`, estimate
 * it, and emit the result through the unified JSON path.
 *
 * Usage:
 *   ./custom_design_json [design_dir]
 * Default design_dir: data/testcases/GA102 relative to the repo
 * root (falls back to an embedded config when missing).
 */

#include <iostream>
#include <optional>

#include "io/config_loader.h"
#include "io/result_writer.h"
#include "session/analysis_session.h"
#include "support/error.h"

int
main(int argc, char **argv)
{
    using namespace ecochip;

    const std::string dir =
        argc > 1 ? argv[1] : "data/testcases/GA102";

    std::optional<AnalysisSession> session;
    try {
        session =
            ScenarioBuilder().designDirectory(dir).build();
        std::cout << "Loaded design directory: " << dir << "\n";
    } catch (const ConfigError &e) {
        std::cout << "(" << e.what()
                  << "; using embedded config)\n";
        const json::Value arch = json::parse(R"({
            "name": "embedded-soc",
            "monolithic": false,
            "packaging": "rdl_fanout",
            "chiplets": [
                {"name": "digital", "type": "logic",
                 "node_nm": 7, "area_mm2": 150.0},
                {"name": "memory", "type": "memory",
                 "node_nm": 10, "area_mm2": 40.0},
                {"name": "io", "type": "analog",
                 "node_nm": 14, "area_mm2": 20.0, "reused": true}
            ]
        })");
        TechDb tech;
        session = ScenarioBuilder()
                      .system(systemFromJson(arch, tech))
                      .tech(tech)
                      .build();
    }

    const AnalysisResult result = session->estimate();

    std::cout << "System \"" << session->system().name << "\" ("
              << session->system().chiplets.size() << " chiplets, "
              << toString(session->context().config().package.arch)
              << " packaging)\n\n";
    json::StreamWriter writer(true);
    appendResult(writer, result);
    std::cout << writer.take() << "\n";
    return 0;
}
