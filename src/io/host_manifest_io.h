/**
 * @file
 * The `hosts.json` host-manifest wire format -- the input of the
 * multi-host shard coordinator (`engine/shard_coordinator.h`,
 * `eco_chip --coordinate ... --hosts HOSTS.json`).
 *
 * A manifest names the machines a coordinated run may dispatch
 * shards onto:
 * @code{.json}
 * {
 *   "hosts": [
 *     {"name": "alpha", "slots": 2},
 *     {"name": "node-a.cluster", "slots": 8,
 *      "command": "ssh {host} /shared/eco_chip --shard_worker {sub_batch} --json {report} --engine_threads {threads} {scenarios_args}"}
 *   ]
 * }
 * @endcode
 *
 * A host without a `command` runs shards through the local
 * process transport (fork/exec on the coordinating machine); a
 * host with one runs them through the command transport, which
 * expands the `{...}` placeholders and hands the line to
 * `/bin/sh -c`. Field-by-field reference in
 * `docs/file_formats.md`, operator guide in
 * `docs/distributed.md`.
 *
 * Unknown keys, duplicate host names, zero/negative slot counts,
 * and typo'd template placeholders are all rejected at load time
 * with the file and the offending key/name/placeholder named,
 * matching the `config_loader` contract.
 */

#ifndef ECOCHIP_IO_HOST_MANIFEST_IO_H
#define ECOCHIP_IO_HOST_MANIFEST_IO_H

#include <string>
#include <utility>
#include <vector>

#include "json/json.h"

namespace ecochip {

/** One machine a coordinated run may dispatch shards onto. */
struct HostSpec
{
    /** Host name: the scheduling identity (and the `{host}`
     *  placeholder value). Must be unique within a manifest. */
    std::string name;

    /** Shards this host runs concurrently (>= 1). */
    int slots = 1;

    /**
     * Command template for the command transport. Empty: the
     * local process transport runs the shard on the
     * coordinating machine instead. Placeholders (validated at
     * load time): `{host}`, `{worker}`, `{sub_batch}`,
     * `{report}`, `{events}`, `{threads}`,
     * `{scenarios_args}`. `{events}` is the per-dispatch NDJSON
     * event-file path the dynamic coordinator tails (workers
     * invoked as `eco_chip --shard_worker` derive it from the
     * report path on their own, so most templates never need
     * it).
     */
    std::string command;

    /** True when shards run through the local process transport. */
    bool isLocal() const { return command.empty(); }
};

/** A parsed `hosts.json` manifest. */
struct HostManifest
{
    /** Hosts in manifest order (the scheduler's preference
     *  order). */
    std::vector<HostSpec> hosts;

    /** Total shard slots across all hosts -- the coordinated
     *  run's worker-process count (and shard-count request). */
    int totalSlots() const;
};

/**
 * Reject @p command_template unless every `{...}` placeholder is
 * one the dispatcher can expand, naming @p context and the
 * offending placeholder otherwise. Braces are reserved: a bare
 * `{` must open a known placeholder.
 */
void validateCommandTemplate(const std::string &command_template,
                             const std::string &context);

/**
 * Expand a validated command template: each `{name}` is replaced
 * by the matching value in @p values.
 *
 * @param command_template Template (see `validateCommandTemplate`).
 * @param values (placeholder name, replacement) pairs.
 * @throws ConfigError on a placeholder missing from @p values.
 */
std::string expandCommandTemplate(
    const std::string &command_template,
    const std::vector<std::pair<std::string, std::string>>
        &values);

/**
 * Parse a host manifest document.
 *
 * @param doc Parsed `hosts.json` JSON.
 * @param context Source label (file path) for error messages.
 * @throws ConfigError on unknown keys, duplicate host names,
 *         out-of-range slot counts, or invalid command templates.
 */
HostManifest hostManifestFromJson(const json::Value &doc,
                                  const std::string &context =
                                      "hosts.json");

/** Load and validate a `hosts.json` file. */
HostManifest loadHostManifest(const std::string &path);

} // namespace ecochip

#endif // ECOCHIP_IO_HOST_MANIFEST_IO_H
