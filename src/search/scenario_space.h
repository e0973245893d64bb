/**
 * @file
 * Generative scenario spaces: a *generator* catalog entry declares
 * axes over architecture/knob dimensions (tech node, chiplet
 * count, stack count, packaging architecture, operating point) and
 * expands into a cross product of bound scenarios -- lazily, via
 * an odometer iterator, so a million-point space costs nothing
 * until a point is actually instantiated.
 *
 * Every point has a deterministic derived name,
 *
 *     <generator>/<axis>=<value>/<axis>=<value>/...
 *
 * with the axes in declaration order and numeric values spelled
 * exactly as the JSON serializer prints them
 * (`json::formatNumber`), so a point can be named in a
 * `requests.json` batch file, resolved by `ScenarioRegistry`
 * (which recognizes derived names of its loaded generators), and
 * content-addressed by the server's result cache -- one canonical
 * name per point, everywhere.
 *
 * Generators are declared in scenario catalogs
 * (`ScenarioRegistry::loadFile`) next to plain scenarios:
 * @code{.json}
 * {
 *   "generators": [
 *     {"name": "fpga-pca-space",
 *      "description": "FPGA PCA accelerator design space",
 *      "architecture": { ... architecture.json schema ... },
 *      "operational": { ... operationalC.json schema ... },
 *      "axes": [
 *        {"axis": "node_nm", "chiplet": "pe-array",
 *         "values": [5, 7, 10]},
 *        {"axis": "chiplet_count", "chiplet": "pe-array",
 *         "values": [1, 2, 4]},
 *        {"axis": "packaging",
 *         "values": ["rdl_fanout", "silicon_bridge"]}
 *      ]}
 *   ]
 * }
 * @endcode
 *
 * The `src/search/` driver (`search_driver.h`) pumps spaces like
 * these through the batch engine as a search loop; `docs/search.md`
 * documents the axis dimensions field by field.
 */

#ifndef ECOCHIP_SEARCH_SCENARIO_SPACE_H
#define ECOCHIP_SEARCH_SCENARIO_SPACE_H

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/config_loader.h"
#include "json/json.h"
#include "tech/tech_db.h"

namespace ecochip {

/** The knob dimensions a generator axis can sweep. */
enum class AxisKind
{
    /** Re-target chiplets to a node (content fixed, area follows
     *  the density model -- the explorer's sweep semantics). */
    NodeNm,

    /** Split one chiplet into k identical slices (content divided
     *  evenly, twins after the first marked `reused` -- the
     *  paper's Nc-sweep/design-reuse pattern). */
    ChipletCount,

    /** Replicate (or trim) the vertical towers of a stack-group
     *  family to k towers (HBM-stack count). */
    StackCount,

    /** Packaging architecture (`packagingArchFromString`). */
    Packaging,

    /** Operating point: product lifetime (years). */
    LifetimeYears,

    /** Operating point: ON-time fraction. */
    DutyCycle,

    /** Operating point: direct average-power override (W). */
    AvgPowerW,

    /** Operating point: use-phase carbon intensity (g/kWh). */
    UseIntensityGPerKwh,
};

/** Config spelling of an axis kind ("node_nm", ...). */
const char *toString(AxisKind kind);

/** Parse an axis kind from its config spelling. */
AxisKind axisKindFromString(const std::string &name,
                            const std::string &context);

/** One swept dimension of a generator. */
struct GeneratorAxis
{
    /**
     * Token used in derived names (`<name>=<value>`). Defaults to
     * the axis kind's spelling; must be unique within the
     * generator and free of '/' and '='.
     */
    std::string name;

    AxisKind kind = AxisKind::NodeNm;

    /**
     * Target chiplet name. Required for ChipletCount; optional
     * filter for NodeNm (empty = every chiplet).
     */
    std::string chiplet;

    /**
     * Stack-group family prefix for StackCount: the base
     * architecture's exemplar tower is group `<prefix>0`, and a
     * value k binds towers `<prefix>0 .. <prefix>(k-1)`.
     */
    std::string groupPrefix;

    /** Numeric candidate values (every kind except Packaging). */
    std::vector<double> numbers;

    /**
     * Canonical value labels, one per candidate, in declaration
     * order -- `json::formatNumber` spellings for numeric axes,
     * the validated config spellings for Packaging.
     */
    std::vector<std::string> labels;

    /** Candidate count. */
    std::size_t size() const { return labels.size(); }
};

/**
 * A parsed generator catalog entry: the base design plus the swept
 * axes. Value type -- cheap to copy (the base is shared).
 */
struct GeneratorTemplate
{
    /** Catalog key; also the derived names' first segment. */
    std::string name;

    /** One-line description for listings. */
    std::string description;

    /** Source label ("catalog.json: generator \"x\"") for errors. */
    std::string context;

    /**
     * Parses the base design documents, captured at load time,
     * against a technology database. The base depends on it:
     * `area_mm2` chiplets take their transistor counts from its
     * density tables.
     */
    std::function<DesignBundle(const TechDb &)> parseBase;

    /** The base, parsed once against `baseTech`. */
    std::shared_ptr<const DesignBundle> base;

    /**
     * The database `base` was parsed against:
     * `TechDb::defaults()` at load time, until `bindTech`.
     */
    std::shared_ptr<const TechDb> baseTech;

    /** Swept axes, in declaration order. */
    std::vector<GeneratorAxis> axes;

    /** Re-parse `base` against @p tech (non-null). */
    void bindTech(std::shared_ptr<const TechDb> tech);

    /**
     * The base bound to @p tech: a copy of `base` when @p tech is
     * `baseTech` (the same object, not an equal one), otherwise
     * parsed afresh.
     */
    DesignBundle baseFor(const TechDb &tech) const;
};

/**
 * Parse one generator entry of a scenario catalog.
 *
 * Validates everything up front so a broken generator fails at
 * load time with the file, generator, and axis named: unknown
 * keys, empty or duplicate axis values, out-of-range knobs,
 * unknown chiplets/stack groups of the base architecture, and
 * name-collision/token syntax problems all throw ConfigError.
 *
 * @param entry The generator JSON object.
 * @param context Source label (catalog path) for error messages.
 * @param base_dir Directory `design_dir` bases resolve against.
 */
GeneratorTemplate generatorFromJson(const json::Value &entry,
                                    const std::string &context,
                                    const std::string &base_dir);

/**
 * The lazy cross product of a generator's axes.
 *
 * Points are ordered row-major over the axes in declaration order
 * (the last axis varies fastest -- odometer order), and are
 * addressed either by flat index or by one index per axis. The
 * full product is never materialized; `instantiate` builds one
 * point's `DesignBundle` on demand. A space refers to its
 * template, which must outlive it.
 */
class ScenarioSpace
{
  public:
    explicit ScenarioSpace(const GeneratorTemplate &generator);

    /** A space must not outlive its template. */
    ScenarioSpace(GeneratorTemplate &&) = delete;

    const GeneratorTemplate &generator() const
    {
        return *generator_;
    }

    /** Axis count. */
    std::size_t axisCount() const
    {
        return generator_->axes.size();
    }

    /** Total point count (product of axis sizes). */
    std::size_t size() const { return size_; }

    /** Decode a flat index into one index per axis. */
    std::vector<std::size_t> indicesAt(std::size_t flat) const;

    /** Flat index of an axis-index vector. */
    std::size_t
    flatIndex(const std::vector<std::size_t> &indices) const;

    /** Derived name of a point. */
    std::string
    nameAt(const std::vector<std::size_t> &indices) const;

    /** Derived name of a point by flat index. */
    std::string nameAt(std::size_t flat) const;

    /**
     * Parse a derived name back into axis indices. Returns empty
     * when @p name is not a point of this space (wrong generator,
     * wrong axis order, or a value outside the declared
     * candidates) -- derived names are strict: only the exact
     * spelling `nameAt` produces resolves.
     */
    std::optional<std::vector<std::size_t>>
    parseName(std::string_view name) const;

    /**
     * Build the design bundle of one point: take the base bound to
     * @p tech (`GeneratorTemplate::baseFor`), then apply the
     * chosen axis values in a fixed phase order (nodes, then
     * chiplet splits, then stack counts, then packaging, then
     * operating overrides; declaration order within a phase), and
     * stamp the system with the derived name.
     */
    DesignBundle
    instantiate(const std::vector<std::size_t> &indices,
                const TechDb &tech) const;

  private:
    const GeneratorTemplate *generator_;
    std::size_t size_ = 1;
};

} // namespace ecochip

#endif // ECOCHIP_SEARCH_SCENARIO_SPACE_H
