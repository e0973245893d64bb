#include "io/request_io.h"

#include <filesystem>
#include <numeric>

#include "io/config_loader.h"
#include "support/error.h"

namespace ecochip {

namespace {

/* The append* emitters below are the request wire format. */

void
appendCostParams(json::StreamWriter &writer,
                 const CostParams &params)
{
    writer.beginObject();
    writer.key("substrate_cost_per_cm2_usd");
    writer.number(params.substrateCostPerCm2Usd);
    writer.key("rdl_layer_cost_per_cm2_usd");
    writer.number(params.rdlLayerCostPerCm2Usd);
    writer.key("bridge_cost_usd");
    writer.number(params.bridgeCostUsd);
    writer.key("interposer_layer_cost_per_cm2_usd");
    writer.number(params.interposerLayerCostPerCm2Usd);
    writer.key("attach_cost_per_chiplet_usd");
    writer.number(params.attachCostPerChipletUsd);
    writer.key("cost_per_bond_usd");
    writer.number(params.costPerBondUsd);
    writer.key("test_cost_per_chiplet_usd");
    writer.number(params.testCostPerChipletUsd);
    writer.key("volume");
    writer.number(params.volume);
    writer.key("include_nre");
    writer.boolean(params.includeNre);
    writer.endObject();
}

void
appendUncertaintyBands(json::StreamWriter &writer,
                       const UncertaintyBands &bands)
{
    writer.beginObject();
    writer.key("defect_density");
    writer.number(bands.defectDensity);
    writer.key("epa");
    writer.number(bands.epa);
    writer.key("intensity");
    writer.number(bands.intensity);
    writer.key("design_time");
    writer.number(bands.designTime);
    writer.key("duty_cycle");
    writer.number(bands.dutyCycle);
    writer.endObject();
}

} // namespace

CostParams
costParamsFromJson(const json::Value &doc,
                   const std::string &context)
{
    rejectUnknownKeys(doc,
                      {"substrate_cost_per_cm2_usd",
                       "rdl_layer_cost_per_cm2_usd",
                       "bridge_cost_usd",
                       "interposer_layer_cost_per_cm2_usd",
                       "attach_cost_per_chiplet_usd",
                       "cost_per_bond_usd",
                       "test_cost_per_chiplet_usd", "volume",
                       "include_nre"},
                      context);

    CostParams params;
    params.substrateCostPerCm2Usd =
        doc.numberOr("substrate_cost_per_cm2_usd",
                     params.substrateCostPerCm2Usd);
    params.rdlLayerCostPerCm2Usd =
        doc.numberOr("rdl_layer_cost_per_cm2_usd",
                     params.rdlLayerCostPerCm2Usd);
    params.bridgeCostUsd =
        doc.numberOr("bridge_cost_usd", params.bridgeCostUsd);
    params.interposerLayerCostPerCm2Usd =
        doc.numberOr("interposer_layer_cost_per_cm2_usd",
                     params.interposerLayerCostPerCm2Usd);
    params.attachCostPerChipletUsd =
        doc.numberOr("attach_cost_per_chiplet_usd",
                     params.attachCostPerChipletUsd);
    params.costPerBondUsd =
        doc.numberOr("cost_per_bond_usd", params.costPerBondUsd);
    params.testCostPerChipletUsd =
        doc.numberOr("test_cost_per_chiplet_usd",
                     params.testCostPerChipletUsd);
    params.volume = doc.numberOr("volume", params.volume);
    params.includeNre =
        doc.booleanOr("include_nre", params.includeNre);
    return params;
}

UncertaintyBands
uncertaintyBandsFromJson(const json::Value &doc,
                         const std::string &context)
{
    rejectUnknownKeys(doc,
                      {"defect_density", "epa", "intensity",
                       "design_time", "duty_cycle"},
                      context);

    UncertaintyBands bands;
    bands.defectDensity =
        doc.numberOr("defect_density", bands.defectDensity);
    bands.epa = doc.numberOr("epa", bands.epa);
    bands.intensity = doc.numberOr("intensity", bands.intensity);
    bands.designTime =
        doc.numberOr("design_time", bands.designTime);
    bands.dutyCycle = doc.numberOr("duty_cycle", bands.dutyCycle);
    return bands;
}

namespace {

/** Sanity caps: a fat-fingered huge value must be rejected, not
 *  wrapped modulo 2^32 or allowed to spawn absurd work. */
constexpr std::int64_t kMaxTrials = 100'000'000;
constexpr std::int64_t kMaxThreads = 4096;

void
appendNodes(json::StreamWriter &writer,
            const std::vector<double> &nodes)
{
    writer.beginArray();
    for (double node : nodes)
        writer.number(node);
    writer.endArray();
}

/**
 * Where a request sits, for its error messages: the source label,
 * and the request's index when it is one of a batch. It is spelled
 * only when a check fails, so a request that parses builds no
 * message text.
 */
struct Where
{
    const std::string &context;
    std::optional<std::size_t> index;

    std::string str() const
    {
        return index ? context + " #" + std::to_string(*index)
                     : context;
    }
};

/** Throw the ConfigError `<where>: <what>`. */
[[noreturn]] void
fail(const Where &where, const std::string &what)
{
    throw ConfigError(where.str() + ": " + what);
}

/** `fail(where, what)` unless @p condition holds. */
void
require(bool condition, const Where &where, const char *what)
{
    if (!condition)
        fail(where, what);
}

/** `rejectUnknownKeys`, spelling @p where only for a bad key. */
void
rejectUnknown(const json::Value &doc,
              std::initializer_list<const char *> known,
              const Where &where)
{
    if (!doc.isObject())
        return;
    for (const auto &[key, value] : doc.members()) {
        bool recognized = false;
        for (const char *candidate : known)
            recognized |= key == candidate;
        if (!recognized)
            rejectUnknownKeys(doc, known, where.str());
    }
}

std::vector<double>
nodesFromJson(const json::Value &arr, const Where &where)
{
    std::vector<double> nodes;
    for (const auto &entry : arr.asArray()) {
        const double node = entry.asNumber();
        require(node > 0.0, where, "nodes must be positive");
        nodes.push_back(node);
    }
    return nodes;
}

} // namespace

void
appendRequest(json::StreamWriter &writer,
              const AnalysisRequest &request)
{
    writer.beginObject();
    if (request.scenario.kind == ScenarioRef::Kind::Registry) {
        writer.key("scenario");
        writer.string(request.scenario.value);
    } else {
        writer.key("design_dir");
        writer.string(request.scenario.value);
    }
    writer.key("analysis");
    writer.string(toString(request.kind()));

    std::visit(
        [&](const auto &spec) {
            using Spec = std::decay_t<decltype(spec)>;
            if constexpr (std::is_same_v<Spec, SweepSpec>) {
                if (!spec.nodesNm.empty()) {
                    writer.key("nodes_nm");
                    appendNodes(writer, spec.nodesNm);
                }
                if (!spec.nodesPerChiplet.empty()) {
                    writer.key("nodes_per_chiplet");
                    writer.beginArray();
                    for (const auto &nodes :
                         spec.nodesPerChiplet)
                        appendNodes(writer, nodes);
                    writer.endArray();
                }
            } else if constexpr (std::is_same_v<
                                     Spec, MonteCarloSpec>) {
                // JSON numbers are doubles: a seed above 2^53
                // would come back corrupted, silently breaking
                // the round-trip guarantee. Refuse instead.
                requireConfig(
                    spec.seed <=
                        (std::uint64_t{1} << 53),
                    "monte_carlo seed " +
                        std::to_string(spec.seed) +
                        " exceeds 2^53 and cannot round-trip "
                        "through JSON");
                writer.key("trials");
                writer.number(spec.trials);
                writer.key("seed");
                writer.number(static_cast<double>(spec.seed));
                writer.key("threads");
                writer.number(spec.threads);
                if (!(spec.bands == UncertaintyBands())) {
                    writer.key("bands");
                    appendUncertaintyBands(writer, spec.bands);
                }
            } else if constexpr (std::is_same_v<
                                     Spec, SensitivitySpec>) {
                writer.key("metric");
                writer.string(toString(spec.metric));
                writer.key("delta");
                writer.number(spec.delta);
            } else if constexpr (std::is_same_v<Spec,
                                                CostSpec>) {
                if (!(spec.params == CostParams())) {
                    writer.key("params");
                    appendCostParams(writer, spec.params);
                }
            }
        },
        request.spec);
    writer.endObject();
}

namespace {

AnalysisRequest
requestAt(const json::Value &doc, const Where &where)
{
    require(doc.isObject(), where, "request must be an object");

    AnalysisRequest request;

    const bool has_scenario = doc.contains("scenario");
    const bool has_dir = doc.contains("design_dir");
    require(has_scenario != has_dir, where,
            "set exactly one of scenario / design_dir");
    request.scenario =
        has_scenario
            ? ScenarioRef::scenario(
                  doc.at("scenario").asString())
            : ScenarioRef::designDirectory(
                  doc.at("design_dir").asString());

    const AnalysisKind kind = analysisKindFromString(
        doc.stringOr("analysis", "estimate"));
    switch (kind) {
      case AnalysisKind::Estimate: {
        rejectUnknown(doc, {"scenario", "design_dir", "analysis"},
                      where);
        request.spec = EstimateSpec{};
        break;
      }
      case AnalysisKind::Sweep: {
        rejectUnknown(doc,
                      {"scenario", "design_dir", "analysis",
                       "nodes_nm", "nodes_per_chiplet"},
                      where);
        SweepSpec spec;
        if (doc.contains("nodes_nm"))
            spec.nodesNm =
                nodesFromJson(doc.at("nodes_nm"), where);
        if (doc.contains("nodes_per_chiplet"))
            for (const auto &nodes :
                 doc.at("nodes_per_chiplet").asArray())
                spec.nodesPerChiplet.push_back(
                    nodesFromJson(nodes, where));
        require(spec.nodesNm.empty() !=
                    spec.nodesPerChiplet.empty(),
                where,
                "sweep needs exactly one of nodes_nm / "
                "nodes_per_chiplet");
        request.spec = std::move(spec);
        break;
      }
      case AnalysisKind::MonteCarlo: {
        rejectUnknown(doc,
                      {"scenario", "design_dir", "analysis",
                       "trials", "seed", "threads", "bands"},
                      where);
        MonteCarloSpec spec;
        // asInteger rejects non-integral numbers (10.7 must not
        // silently truncate to 10 trials) and numbers outside
        // int64; the range checks run on the int64 before
        // narrowing, so out-of-int values are rejected rather
        // than wrapped.
        if (doc.contains("trials")) {
            const std::int64_t trials =
                doc.at("trials").asInteger();
            if (trials < 2 || trials > kMaxTrials)
                fail(where, "trials must be in [2, " +
                                std::to_string(kMaxTrials) + "]");
            spec.trials = static_cast<int>(trials);
        }
        require(spec.trials >= 2, where, "trials must be >= 2");
        if (doc.contains("seed")) {
            const std::int64_t seed =
                doc.at("seed").asInteger();
            require(seed >= 0, where,
                    "seed must be non-negative");
            spec.seed = static_cast<std::uint64_t>(seed);
        }
        if (doc.contains("threads")) {
            const std::int64_t threads =
                doc.at("threads").asInteger();
            if (threads < 1 || threads > kMaxThreads)
                fail(where, "threads must be in [1, " +
                                std::to_string(kMaxThreads) + "]");
            spec.threads = static_cast<int>(threads);
        }
        require(spec.threads >= 1, where,
                "threads must be >= 1");
        if (doc.contains("bands"))
            spec.bands = uncertaintyBandsFromJson(
                doc.at("bands"), where.str() + ": bands");
        request.spec = spec;
        break;
      }
      case AnalysisKind::Sensitivity: {
        rejectUnknown(doc,
                      {"scenario", "design_dir", "analysis",
                       "metric", "delta"},
                      where);
        SensitivitySpec spec;
        spec.metric = carbonMetricFromString(
            doc.stringOr("metric", "embodied"));
        spec.delta = doc.numberOr("delta", spec.delta);
        require(spec.delta > 0.0 && spec.delta < 1.0, where,
                "delta must be in (0, 1)");
        request.spec = spec;
        break;
      }
      case AnalysisKind::Cost: {
        rejectUnknown(
            doc, {"scenario", "design_dir", "analysis", "params"},
            where);
        CostSpec spec;
        if (doc.contains("params"))
            spec.params = costParamsFromJson(
                doc.at("params"), where.str() + ": params");
        request.spec = spec;
        break;
      }
    }
    return request;
}

} // namespace

AnalysisRequest
requestFromJson(const json::Value &doc,
                const std::string &context)
{
    return requestAt(doc, {context, std::nullopt});
}

std::vector<AnalysisRequest>
requestsFromJson(const json::Value &doc,
                 const std::string &context)
{
    const Where batch{context, std::nullopt};
    const json::Value *list = &doc;
    if (doc.isObject()) {
        require(doc.contains("requests"), batch,
                "batch object needs a \"requests\" array");
        list = &doc.at("requests");
    }

    std::vector<AnalysisRequest> requests;
    std::size_t index = 0;
    for (const auto &entry : list->asArray()) {
        requests.push_back(requestAt(entry, {context, index}));
        ++index;
    }
    require(!requests.empty(), batch, "batch has no requests");
    return requests;
}

std::string
canonicalRequestText(const AnalysisRequest &request)
{
    AnalysisRequest normalized = request;
    // Scheduling-only knob: trial batching cannot change a
    // Monte-Carlo result (equal seeds are bit-identical at any
    // thread count), so requests differing only in it must land
    // on the same cache entry.
    if (auto *mc = std::get_if<MonteCarloSpec>(&normalized.spec))
        mc->threads = 1;
    // appendRequest emits members in one fixed order, numbers in
    // one fixed format, and omits defaulted optionals, so its
    // compact output is already canonical -- no DOM needed.
    json::StreamWriter writer;
    appendRequest(writer, normalized);
    return writer.take();
}

BatchFile
loadBatchFile(const std::string &path)
{
    const json::Value doc = json::parseFile(path);

    BatchFile batch;
    if (doc.isObject()) {
        rejectUnknownKeys(doc, {"scenarios", "requests"}, path);
        if (doc.contains("scenarios")) {
            // Catalog paths resolve relative to the batch file so
            // a requests/ directory ships as a self-contained
            // unit.
            const std::filesystem::path catalog(
                doc.at("scenarios").asString());
            batch.scenarioCatalog =
                catalog.is_absolute()
                    ? catalog.string()
                    : (std::filesystem::path(path)
                           .parent_path() /
                       catalog)
                          .string();
        }
    }
    batch.requests = requestsFromJson(doc, path);
    return batch;
}

void
writeBatchFile(const BatchFile &batch, const std::string &path)
{
    std::vector<std::size_t> all(batch.requests.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    writeBatchFile(batch.requests, all, batch.scenarioCatalog, path);
}

void
writeBatchFile(const std::vector<AnalysisRequest> &requests,
               const std::vector<std::size_t> &indices,
               const std::optional<std::string> &catalog,
               const std::string &path)
{
    json::StreamWriter writer(true);
    writer.beginObject();
    if (catalog) {
        writer.key("scenarios");
        writer.string(*catalog);
    }
    writer.key("requests");
    writer.beginArray();
    for (std::size_t index : indices)
        appendRequest(writer, requests.at(index));
    writer.endArray();
    writer.endObject();
    json::writeFile(writer.str(), path);
}

} // namespace ecochip
