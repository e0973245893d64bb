/**
 * @file
 * Named scenario registry: every built-in workload as a
 * (system, configuration) factory addressable by name.
 *
 * The paper's workflow always starts from "a design bound to a
 * tech database"; the registry makes those starting points
 * first-class so the CLI (`eco_chip --scenario ga102`), the
 * examples, and downstream DSE loops share one catalog instead of
 * hand-wiring testcase helpers.
 */

#ifndef ECOCHIP_SESSION_SCENARIO_REGISTRY_H
#define ECOCHIP_SESSION_SCENARIO_REGISTRY_H

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/config_loader.h"
#include "json/json.h"
#include "search/scenario_space.h"
#include "tech/tech_db.h"

namespace ecochip {

/** One named workload: a system + configuration factory. */
struct Scenario
{
    /** Registry key ("ga102", "server-4die", ...). */
    std::string name;

    /** One-line description for listings. */
    std::string description;

    /**
     * Instantiates the scenario against a technology database.
     * Returns the system and the full estimator configuration
     * (packaging choice, operating spec, model toggles).
     */
    std::function<DesignBundle(const TechDb &)> make;
};

/**
 * Registry of named scenarios.
 *
 * `builtin()` carries the paper's GA102/A15/EMR/ARVR testcases
 * plus the server-class multi-die part and the HBM-stacked
 * accelerator; custom registries can be built up with `add()`.
 */
class ScenarioRegistry
{
  public:
    /** Empty registry (for custom catalogs). */
    ScenarioRegistry() = default;

    /** The built-in catalog (constructed once). */
    static const ScenarioRegistry &builtin();

    /**
     * Register a scenario.
     *
     * @param scenario Must have a unique, non-empty name and a
     *        callable factory.
     */
    void add(Scenario scenario);

    /**
     * Register every scenario of a JSON catalog file, so new
     * workloads (and `--batch` request files naming them) need no
     * recompilation.
     *
     * Schema:
     * @code{.json}
     * {
     *   "scenarios": [
     *     {"name": "my-soc",
     *      "description": "two-chiplet custom part",
     *      "architecture": { ... architecture.json schema ... },
     *      "package": { ... packageC.json schema ... },
     *      "design": { ... designC.json schema ... },
     *      "operational": { ... operationalC.json schema ... }},
     *     {"name": "shipped-ga102",
     *      "design_dir": "../testcases/GA102"}
     *   ]
     * }
     * @endcode
     *
     * Each entry provides exactly one of an inline `architecture`
     * document (with optional knob documents) or a `design_dir`
     * (resolved relative to the catalog file). Unknown keys are
     * rejected with the file and key named.
     *
     * A catalog may also carry a top-level `generators` array of
     * scenario-space templates (`generatorFromJson` schema); the
     * registry then resolves their derived point names
     * (`<generator>/<axis>=<value>/...`) in `contains()` /
     * `instantiate()` without ever materializing the space.
     *
     * @param path Path to the catalog JSON.
     * @throws ConfigError on malformed catalogs or duplicate
     *         names.
     */
    void loadFile(const std::string &path);

    /** Register catalog scenarios from a parsed document. */
    void loadJson(const json::Value &doc,
                  const std::string &context,
                  const std::string &base_dir = ".");

    /**
     * Register a scenario-space generator template. Its derived
     * point names become resolvable; the template itself is
     * listed via `generators()`.
     */
    void addGenerator(GeneratorTemplate generator);

    /**
     * Parse every generator's base design once against @p tech
     * (non-null), so `instantiate(name, *tech)` builds a
     * generator point by copying its base and applying the axes.
     * Instantiation against any other database parses the base
     * afresh (`GeneratorTemplate::baseFor`).
     */
    void bindTech(const std::shared_ptr<const TechDb> &tech);

    /** Loaded generator templates, in registration order. */
    const std::vector<GeneratorTemplate> &generators() const
    {
        return generators_;
    }

    /**
     * Lookup a generator template by name.
     *
     * @throws ConfigError listing the loaded generator names when
     *         @p name is unknown.
     */
    const GeneratorTemplate &
    generator(const std::string &name) const;

    /**
     * True when @p name is a registered scenario or a point of a
     * loaded generator's space.
     */
    bool contains(const std::string &name) const;

    /**
     * Lookup an explicitly registered scenario by name. Derived
     * generator points are not materialized as Scenario entries;
     * resolve those through `instantiate()`.
     *
     * @throws ConfigError listing the available names when @p name
     *         is unknown.
     */
    const Scenario &get(const std::string &name) const;

    /**
     * Instantiate a scenario against @p tech. Accepts registered
     * scenario names and derived generator point names
     * (`<generator>/<axis>=<value>/...`).
     */
    DesignBundle instantiate(const std::string &name,
                             const TechDb &tech) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /** All scenarios, in registration order. */
    const std::vector<Scenario> &scenarios() const
    {
        return scenarios_;
    }

  private:
    /** The registered scenario named @p name, or null. */
    const Scenario *find(const std::string &name) const;

    std::vector<Scenario> scenarios_;

    /** Index of each scenario in `scenarios_`, by name. */
    std::unordered_map<std::string, std::size_t> byName_;

    std::vector<GeneratorTemplate> generators_;
};

} // namespace ecochip

#endif // ECOCHIP_SESSION_SCENARIO_REGISTRY_H
