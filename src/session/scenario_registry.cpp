#include "session/scenario_registry.h"

#include <filesystem>
#include <memory>

#include "core/testcases.h"
#include "support/error.h"

namespace ecochip {

namespace {

ScenarioRegistry
makeBuiltin()
{
    ScenarioRegistry registry;

    registry.add(
        {"ga102",
         "GA102-class GPU, 3 chiplets (7,10,14) nm, RDL fanout",
         [](const TechDb &tech) {
             DesignBundle bundle;
             bundle.system = testcases::ga102ThreeChiplet(
                 tech, 7.0, 10.0, 14.0);
             bundle.config.package.arch =
                 PackagingArch::RdlFanout;
             bundle.config.operating =
                 testcases::ga102Operating();
             return bundle;
         }});

    registry.add(
        {"ga102-mono",
         "GA102-class GPU, monolithic 7 nm baseline",
         [](const TechDb &tech) {
             DesignBundle bundle;
             bundle.system = testcases::ga102Monolithic(tech);
             bundle.config.operating =
                 testcases::ga102Operating();
             return bundle;
         }});

    registry.add(
        {"ga102-hbm",
         "GA102-class GPU with 2x4 HBM memory towers on a "
         "passive interposer",
         [](const TechDb &tech) {
             DesignBundle bundle;
             bundle.system = testcases::ga102Hbm(tech, 2, 4);
             bundle.config.package.arch =
                 PackagingArch::PassiveInterposer;
             bundle.config.operating =
                 testcases::ga102Operating();
             return bundle;
         }});

    registry.add(
        {"a15",
         "A15-class mobile SoC, 3 chiplets (5,7,10) nm, RDL "
         "fanout, battery-rating operation",
         [](const TechDb &tech) {
             DesignBundle bundle;
             bundle.system = testcases::a15ThreeChiplet(
                 tech, 5.0, 7.0, 10.0);
             bundle.config.package.arch =
                 PackagingArch::RdlFanout;
             bundle.config.operating = testcases::a15Operating();
             return bundle;
         }});

    registry.add(
        {"a15-mono",
         "A15-class mobile SoC, monolithic 5 nm baseline",
         [](const TechDb &tech) {
             DesignBundle bundle;
             bundle.system = testcases::a15Monolithic(tech);
             bundle.config.operating = testcases::a15Operating();
             return bundle;
         }});

    registry.add(
        {"emr",
         "Emerald-Rapids-class server CPU, 2 compute dies, "
         "silicon bridges (EMIB)",
         [](const TechDb &tech) {
             DesignBundle bundle;
             bundle.system = testcases::emrTwoChiplet(tech);
             bundle.config.package.arch =
                 PackagingArch::SiliconBridge;
             bundle.config.operating = testcases::emrOperating();
             return bundle;
         }});

    registry.add(
        {"server-4die",
         "Server-class part: 4 EMR-class compute dies + IO hub + "
         "memory-side cache, silicon bridges",
         [](const TechDb &tech) {
             DesignBundle bundle;
             bundle.system = testcases::serverMultiDie(tech, 4);
             bundle.config.package.arch =
                 PackagingArch::SiliconBridge;
             bundle.config.operating =
                 testcases::serverOperating();
             return bundle;
         }});

    registry.add(
        {"hbm-accel",
         "HBM-stacked training accelerator: 7 nm compute die + "
         "4x4 DRAM towers on a passive interposer",
         [](const TechDb &tech) {
             DesignBundle bundle;
             bundle.system = testcases::hbmAccelerator(tech, 4, 4);
             bundle.config.package.arch =
                 PackagingArch::PassiveInterposer;
             bundle.config.operating =
                 testcases::hbmAcceleratorOperating();
             return bundle;
         }});

    registry.add(
        {"fpga-pca",
         "MANOJAVAM-class FPGA PCA accelerator: PE array + "
         "BRAM + transceiver dies, RDL fanout",
         [](const TechDb &tech) {
             DesignBundle bundle;
             bundle.system = testcases::fpgaPcaAccelerator(tech);
             bundle.config.package.arch =
                 PackagingArch::RdlFanout;
             bundle.config.operating =
                 testcases::fpgaPcaOperating();
             return bundle;
         }});

    registry.add(
        {"riscv-manycore64",
         "Sophon-SG2044-class 64-core RISC-V manycore: 4 "
         "cluster dies + IO hub + cache, silicon bridges",
         [](const TechDb &tech) {
             DesignBundle bundle;
             bundle.system = testcases::riscvManycore64(tech);
             bundle.config.package.arch =
                 PackagingArch::SiliconBridge;
             bundle.config.operating =
                 testcases::riscvManycore64Operating();
             return bundle;
         }});

    registry.add(
        {"arvr-2k",
         "AR/VR neural accelerator, 2K MACs with 4 stacked SRAM "
         "tiers (3D)",
         [](const TechDb &tech) {
             const testcases::ArvrPoint point =
                 testcases::arvrAccelerator(tech, "2K", 4);
             DesignBundle bundle;
             bundle.system = point.system;
             bundle.config.package.arch = PackagingArch::Stack3d;
             bundle.config.operating =
                 testcases::arvrOperating(point);
             return bundle;
         }});

    return registry;
}

} // namespace

const ScenarioRegistry &
ScenarioRegistry::builtin()
{
    static const ScenarioRegistry registry = makeBuiltin();
    return registry;
}

void
ScenarioRegistry::add(Scenario scenario)
{
    requireConfig(!scenario.name.empty(),
                  "scenario needs a name");
    requireConfig(static_cast<bool>(scenario.make),
                  "scenario \"" + scenario.name +
                      "\" needs a factory");
    requireConfig(!contains(scenario.name),
                  "scenario \"" + scenario.name +
                      "\" already registered");
    byName_.emplace(scenario.name, scenarios_.size());
    scenarios_.push_back(std::move(scenario));
}

const Scenario *
ScenarioRegistry::find(const std::string &name) const
{
    const auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : &scenarios_[it->second];
}

void
ScenarioRegistry::loadFile(const std::string &path)
{
    loadJson(json::parseFile(path), path,
             std::filesystem::path(path)
                 .parent_path()
                 .string());
}

void
ScenarioRegistry::loadJson(const json::Value &doc,
                           const std::string &context,
                           const std::string &base_dir)
{
    rejectUnknownKeys(doc, {"scenarios", "generators"}, context);
    requireConfig(doc.contains("scenarios") ||
                      doc.contains("generators"),
                  context +
                      ": catalog has no scenarios or generators");

    if (doc.contains("generators")) {
        const auto &entries = doc.at("generators").asArray();
        requireConfig(!entries.empty(),
                      context + ": empty generators array");
        for (const auto &entry : entries)
            addGenerator(
                generatorFromJson(entry, context, base_dir));
    }

    if (!doc.contains("scenarios"))
        return;
    const auto &entries = doc.at("scenarios").asArray();
    requireConfig(!entries.empty(),
                  context + ": catalog has no scenarios");

    for (const auto &entry : entries) {
        rejectUnknownKeys(entry,
                          {"name", "description", "architecture",
                           "design_dir", "package", "design",
                           "operational"},
                          context);
        Scenario scenario;
        scenario.name = entry.at("name").asString();
        scenario.description =
            entry.stringOr("description",
                           "user scenario from " + context);
        const std::string entry_context =
            context + ": scenario \"" + scenario.name + "\"";

        const bool inline_arch = entry.contains("architecture");
        const bool from_dir = entry.contains("design_dir");
        requireConfig(inline_arch != from_dir,
                      entry_context +
                          " needs exactly one of architecture / "
                          "design_dir");

        if (from_dir) {
            requireConfig(!entry.contains("package") &&
                              !entry.contains("design") &&
                              !entry.contains("operational"),
                          entry_context +
                              ": design_dir scenarios take their "
                              "knob files from the directory");
            const std::filesystem::path dir(
                entry.at("design_dir").asString());
            const std::string resolved =
                dir.is_absolute()
                    ? dir.string()
                    : (std::filesystem::path(base_dir) / dir)
                          .string();
            // Same fail-at-load contract as inline entries: the
            // directory (and its architecture.json) must exist
            // now; its contents are parsed at instantiate time.
            requireConfig(
                std::filesystem::is_directory(resolved),
                entry_context + ": not a design directory: " +
                    resolved);
            requireConfig(
                std::filesystem::exists(
                    std::filesystem::path(resolved) /
                    "architecture.json"),
                entry_context + ": missing architecture.json "
                                "in " + resolved);
            scenario.make = [resolved](const TechDb &tech) {
                return loadDesignDirectory(resolved, tech);
            };
        } else {
            // Capture the documents by value: the factory must
            // outlive the parsed catalog, and instantiation binds
            // a technology database only at build() time.
            const json::Value arch = entry.at("architecture");
            auto optional_doc =
                [&](const char *key) -> std::shared_ptr<
                                         const json::Value> {
                if (!entry.contains(key))
                    return nullptr;
                return std::make_shared<const json::Value>(
                    entry.at(key));
            };
            const auto pkg = optional_doc("package");
            const auto design = optional_doc("design");
            const auto operational = optional_doc("operational");
            scenario.make = [arch, pkg, design, operational,
                             entry_context](const TechDb &tech) {
                return designBundleFromJson(
                    arch, pkg.get(), design.get(),
                    operational.get(), tech, entry_context);
            };
            // Instantiate once against the default calibration
            // so a schema-broken catalog fails at load time, not
            // at first use (the schema checks are
            // tech-independent; only area inversion numerics
            // depend on the database bound at build() time).
            scenario.make(*TechDb::defaults());
        }
        add(std::move(scenario));
    }
}

void
ScenarioRegistry::addGenerator(GeneratorTemplate generator)
{
    requireConfig(!generator.name.empty(),
                  "generator needs a name");
    requireConfig(generator.name.find('/') ==
                      std::string::npos,
                  "generator name \"" + generator.name +
                      "\" must not contain '/'");
    requireConfig(!contains(generator.name),
                  "generator \"" + generator.name +
                      "\" collides with a registered scenario");
    for (const auto &other : generators_)
        requireConfig(other.name != generator.name,
                      "generator \"" + generator.name +
                          "\" already registered");
    // Validates axis sizes and the point-count ceiling.
    const ScenarioSpace validated(generator);
    (void)validated;
    generators_.push_back(std::move(generator));
}

void
ScenarioRegistry::bindTech(const std::shared_ptr<const TechDb> &tech)
{
    for (auto &generator : generators_) {
        try {
            generator.bindTech(tech);
        } catch (const Error &) {
            // A base @p tech cannot parse stays bound elsewhere,
            // so each of its points parses afresh and fails on
            // its own, one request at a time.
        }
    }
}

const GeneratorTemplate &
ScenarioRegistry::generator(const std::string &name) const
{
    for (const auto &generator : generators_)
        if (generator.name == name)
            return generator;

    std::string available;
    for (const auto &generator : generators_) {
        if (!available.empty())
            available += ", ";
        available += generator.name;
    }
    throw ConfigError("unknown generator \"" + name +
                      "\" (loaded: " +
                      (available.empty() ? "none" : available) +
                      ")");
}

bool
ScenarioRegistry::contains(const std::string &name) const
{
    if (find(name))
        return true;
    for (const auto &generator : generators_)
        if (ScenarioSpace(generator).parseName(name))
            return true;
    return false;
}

const Scenario &
ScenarioRegistry::get(const std::string &name) const
{
    if (const Scenario *scenario = find(name))
        return *scenario;

    std::string available;
    for (const auto &scenario : scenarios_) {
        if (!available.empty())
            available += ", ";
        available += scenario.name;
    }
    std::string message = "unknown scenario \"" + name +
                          "\" (available: " + available + ")";
    if (!generators_.empty()) {
        message += " (generator templates: ";
        bool first = true;
        for (const auto &generator : generators_) {
            if (!first)
                message += ", ";
            first = false;
            message += generator.name + "/...";
        }
        message += ")";
    }
    throw ConfigError(message);
}

DesignBundle
ScenarioRegistry::instantiate(const std::string &name,
                              const TechDb &tech) const
{
    // Derived generator point names resolve lazily -- the space
    // is never materialized into Scenario entries.
    for (const auto &generator : generators_) {
        const ScenarioSpace space(generator);
        if (const auto indices = space.parseName(name))
            return space.instantiate(*indices, tech);
    }
    return get(name).make(tech);
}

std::vector<std::string>
ScenarioRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(scenarios_.size());
    for (const auto &scenario : scenarios_)
        out.push_back(scenario.name);
    return out;
}

} // namespace ecochip
