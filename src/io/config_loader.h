/**
 * @file
 * JSON configuration loading and report serialization.
 *
 * Mirrors the reference artifact's input layout: a design directory
 * holds `architecture.json` (chiplets + packaging choice),
 * `packageC.json` (packaging knobs), `designC.json` (design-CFP
 * knobs), and `operationalC.json` (operating spec). Any file may be
 * omitted, in which case the paper defaults apply.
 */

#ifndef ECOCHIP_IO_CONFIG_LOADER_H
#define ECOCHIP_IO_CONFIG_LOADER_H

#include <initializer_list>
#include <string>

#include "core/ecochip.h"
#include "json/json.h"
#include "json/stream_writer.h"

namespace ecochip {

/**
 * Reject members of @p doc outside a schema's @p known key set
 * with a ConfigError naming @p context and the offending key -- a
 * typo'd field must fail loudly instead of silently loading as a
 * default. Non-object values pass (their type errors surface at
 * the checked accessors).
 */
void rejectUnknownKeys(const json::Value &doc,
                       std::initializer_list<const char *> known,
                       const std::string &context);

/**
 * Parse a SystemSpec from an `architecture.json` document.
 *
 * Schema:
 * @code{.json}
 * {
 *   "name": "GA102-3c",
 *   "monolithic": false,
 *   "chiplets": [
 *     {"name": "digital", "type": "logic", "node_nm": 7,
 *      "area_mm2": 500.0},
 *     {"name": "memory", "type": "memory", "node_nm": 10,
 *      "transistors_mtr": 6800.0, "reused": true}
 *   ]
 * }
 * @endcode
 *
 * Each chiplet provides either `area_mm2` (interpreted at its
 * `node_nm` via the area model) or `transistors_mtr` directly.
 * Optional keys: `reused` (design CFP amortized elsewhere) and
 * `stack_group` (vertical tower membership for mixed 2.5D/3D).
 *
 * Unknown keys are rejected (ConfigError naming the offending key
 * and @p context), so a typo'd field can never silently load as a
 * default. The same holds for every loader below.
 *
 * @param doc Parsed JSON document.
 * @param tech Technology database for area inversion.
 * @param context Source label (file path) for error messages.
 */
SystemSpec systemFromJson(const json::Value &doc,
                          const TechDb &tech,
                          const std::string &context =
                              "architecture.json");

/**
 * Parse PackageParams from a `packageC.json` document; missing
 * keys keep their defaults, unknown keys are rejected.
 */
PackageParams packageParamsFromJson(const json::Value &doc,
                                    const std::string &context =
                                        "packageC.json");

/** Parse DesignParams from a `designC.json` document. */
DesignParams designParamsFromJson(const json::Value &doc,
                                  const std::string &context =
                                      "designC.json");

/** Parse an OperatingSpec from an `operationalC.json` document. */
OperatingSpec operatingSpecFromJson(const json::Value &doc,
                                    const std::string &context =
                                        "operationalC.json");

/** A fully loaded design directory. */
struct DesignBundle
{
    SystemSpec system;
    EcoChipConfig config;
};

/**
 * Assemble a DesignBundle from already-parsed documents -- the
 * shared core of `loadDesignDirectory` and JSON scenario catalogs
 * (`ScenarioRegistry::loadFile`). The architecture document is
 * required and may carry the `packaging` / `yield_model` config
 * shortcuts; the other documents are optional (null pointers keep
 * the paper defaults).
 *
 * @param arch Architecture document.
 * @param package Optional packageC document.
 * @param design Optional designC document.
 * @param operational Optional operationalC document.
 * @param tech Technology database.
 * @param context Source label for error messages.
 * @param package_context Label for @p package errors; empty
 *        derives "<context>: package". Likewise the next two.
 */
DesignBundle designBundleFromJson(
    const json::Value &arch, const json::Value *package,
    const json::Value *design, const json::Value *operational,
    const TechDb &tech, const std::string &context,
    const std::string &package_context = "",
    const std::string &design_context = "",
    const std::string &operational_context = "");

/**
 * Load a design directory (the `--design_dir` workflow of the
 * reference tool): reads `architecture.json` (required) and the
 * optional `packageC.json`, `designC.json`, `operationalC.json`.
 *
 * @param dir Directory path.
 * @param tech Technology database.
 */
DesignBundle loadDesignDirectory(const std::string &dir,
                                 const TechDb &tech);

/** Emit a CarbonReport through the streaming writer. */
void appendReport(json::StreamWriter &writer,
                  const CarbonReport &report);

/**
 * Load a node-list file (the artifact's `node_list.txt`): one node
 * per line in nm, with optional "nm" suffix; blank lines and
 * '#'-comments ignored.
 *
 * @param path Path to the node list.
 * @return Nodes in file order.
 */
std::vector<double> loadNodeList(const std::string &path);

} // namespace ecochip

#endif // ECOCHIP_IO_CONFIG_LOADER_H
