#include "search/scenario_space.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <utility>

#include "package/package_params.h"
#include "support/error.h"

namespace ecochip {

namespace {

/**
 * Ceiling on a space's point count. Expansion is lazy, so this is
 * not a memory limit -- it guards the flat-index arithmetic (and
 * the user against a cross product no search could ever visit).
 */
constexpr std::size_t kMaxPoints = 1'000'000'000'000ULL;

/** Transform phase of an axis kind; `instantiate` applies phases
 *  in this fixed order regardless of declaration order, so e.g. a
 *  node filter always sees pre-split chiplet names. */
int
phaseOf(AxisKind kind)
{
    switch (kind) {
    case AxisKind::NodeNm: return 0;
    case AxisKind::ChipletCount: return 1;
    case AxisKind::StackCount: return 2;
    case AxisKind::Packaging: return 3;
    default: return 4; // operating-point overrides
    }
}

bool
hasChiplet(const SystemSpec &system, const std::string &name)
{
    for (const auto &chiplet : system.chiplets)
        if (chiplet.name == name)
            return true;
    return false;
}

/** Tower number of a stack group under @p prefix, or -1 when the
 *  group is not `<prefix><decimal>`. */
long
towerNumber(const std::string &group, const std::string &prefix)
{
    if (group.size() <= prefix.size() ||
        group.compare(0, prefix.size(), prefix) != 0)
        return -1;
    long number = 0;
    for (std::size_t i = prefix.size(); i < group.size(); ++i) {
        const char c = group[i];
        if (c < '0' || c > '9')
            return -1;
        number = number * 10 + (c - '0');
    }
    return number;
}

/** Tower count of the `<prefix>` family (0 when absent). */
std::size_t
towerCount(const SystemSpec &system, const std::string &prefix)
{
    long highest = -1;
    for (const auto &chiplet : system.chiplets)
        highest = std::max(
            highest, towerNumber(chiplet.stackGroup, prefix));
    return static_cast<std::size_t>(highest + 1);
}

void
checkToken(const std::string &token, const std::string &what,
           const std::string &context)
{
    requireConfig(!token.empty(),
                  context + ": " + what + " must not be empty");
    requireConfig(token.find('/') == std::string::npos &&
                      token.find('=') == std::string::npos,
                  context + ": " + what + " \"" + token +
                      "\" must not contain '/' or '='");
}

GeneratorAxis
axisFromJson(const json::Value &doc,
             const std::string &generator_context)
{
    rejectUnknownKeys(
        doc, {"axis", "name", "values", "chiplet", "group"},
        generator_context);

    GeneratorAxis axis;
    axis.kind = axisKindFromString(doc.at("axis").asString(),
                                   generator_context);
    axis.name = doc.stringOr("name", toString(axis.kind));
    const std::string context =
        generator_context + ": axis \"" + axis.name + "\"";
    checkToken(axis.name, "axis name", generator_context);

    // Target keys: `chiplet` names the die a node/split axis acts
    // on; `group` names the stack-family prefix a tower-count
    // axis replicates.
    if (doc.contains("chiplet")) {
        requireConfig(axis.kind == AxisKind::NodeNm ||
                          axis.kind == AxisKind::ChipletCount,
                      context + ": \"chiplet\" only applies to "
                                "node_nm / chiplet_count axes");
        axis.chiplet = doc.at("chiplet").asString();
        requireConfig(!axis.chiplet.empty(),
                      context +
                          ": \"chiplet\" must not be empty");
    }
    requireConfig(axis.kind != AxisKind::ChipletCount ||
                      !axis.chiplet.empty(),
                  context +
                      ": chiplet_count needs a \"chiplet\" "
                      "target");
    if (doc.contains("group")) {
        requireConfig(axis.kind == AxisKind::StackCount,
                      context + ": \"group\" only applies to "
                                "stack_count axes");
        axis.groupPrefix = doc.at("group").asString();
        requireConfig(!axis.groupPrefix.empty(),
                      context + ": \"group\" must not be empty");
    }
    requireConfig(axis.kind != AxisKind::StackCount ||
                      !axis.groupPrefix.empty(),
                  context +
                      ": stack_count needs a \"group\" prefix");

    const auto &values = doc.at("values").asArray();
    requireConfig(!values.empty(),
                  context +
                      ": empty axis (needs at least one value)");

    for (const auto &value : values) {
        std::string label;
        if (axis.kind == AxisKind::Packaging) {
            label = value.asString();
            try {
                packagingArchFromString(label);
            } catch (const ConfigError &) {
                throw ConfigError(
                    context +
                    ": unknown packaging architecture \"" +
                    label + "\"");
            }
            checkToken(label, "axis value", context);
        } else {
            const double number = value.asNumber();
            switch (axis.kind) {
            case AxisKind::NodeNm:
                requireConfig(number > 0.0,
                              context +
                                  ": node_nm must be positive");
                break;
            case AxisKind::ChipletCount:
            case AxisKind::StackCount:
                requireConfig(
                    number == std::floor(number),
                    context + ": count must be an integer");
                requireConfig(
                    number >=
                        (axis.kind == AxisKind::ChipletCount
                             ? 1.0
                             : 0.0),
                    context +
                        (axis.kind == AxisKind::ChipletCount
                             ? ": chiplet_count must be >= 1"
                             : ": stack_count must be >= 0"));
                requireConfig(number <= 64.0,
                              context +
                                  ": count must be <= 64");
                break;
            case AxisKind::DutyCycle:
                requireConfig(number > 0.0 && number <= 1.0,
                              context + ": duty_cycle must be "
                                        "in (0, 1]");
                break;
            default:
                requireConfig(number > 0.0,
                              context +
                                  ": value must be positive");
                break;
            }
            axis.numbers.push_back(number);
            label = json::formatNumber(number);
        }

        requireConfig(std::find(axis.labels.begin(),
                                axis.labels.end(),
                                label) == axis.labels.end(),
                      context + ": duplicate axis value \"" +
                          label + "\"");
        axis.labels.push_back(std::move(label));
    }

    return axis;
}

} // namespace

const char *
toString(AxisKind kind)
{
    switch (kind) {
    case AxisKind::NodeNm: return "node_nm";
    case AxisKind::ChipletCount: return "chiplet_count";
    case AxisKind::StackCount: return "stack_count";
    case AxisKind::Packaging: return "packaging";
    case AxisKind::LifetimeYears: return "lifetime_years";
    case AxisKind::DutyCycle: return "duty_cycle";
    case AxisKind::AvgPowerW: return "avg_power_w";
    case AxisKind::UseIntensityGPerKwh:
        return "intensity_g_per_kwh";
    }
    return "unknown";
}

AxisKind
axisKindFromString(const std::string &name,
                   const std::string &context)
{
    if (name == "node_nm")
        return AxisKind::NodeNm;
    if (name == "chiplet_count")
        return AxisKind::ChipletCount;
    if (name == "stack_count")
        return AxisKind::StackCount;
    if (name == "packaging")
        return AxisKind::Packaging;
    if (name == "lifetime_years")
        return AxisKind::LifetimeYears;
    if (name == "duty_cycle")
        return AxisKind::DutyCycle;
    if (name == "avg_power_w")
        return AxisKind::AvgPowerW;
    if (name == "intensity_g_per_kwh")
        return AxisKind::UseIntensityGPerKwh;
    throw ConfigError(
        context + ": unknown axis dimension \"" + name +
        "\" (expected node_nm, chiplet_count, stack_count, "
        "packaging, lifetime_years, duty_cycle, avg_power_w, or "
        "intensity_g_per_kwh)");
}

GeneratorTemplate
generatorFromJson(const json::Value &entry,
                  const std::string &context,
                  const std::string &base_dir)
{
    rejectUnknownKeys(entry,
                      {"name", "description", "architecture",
                       "design_dir", "package", "design",
                       "operational", "axes"},
                      context);

    GeneratorTemplate generator;
    generator.name = entry.at("name").asString();
    requireConfig(!generator.name.empty(),
                  context + ": generator needs a name");
    requireConfig(
        generator.name.find('/') == std::string::npos,
        context + ": generator name \"" + generator.name +
            "\" must not contain '/'");
    generator.context =
        context + ": generator \"" + generator.name + "\"";
    generator.description = entry.stringOr(
        "description", "generator from " + context);

    const bool inline_arch = entry.contains("architecture");
    const bool from_dir = entry.contains("design_dir");
    requireConfig(inline_arch != from_dir,
                  generator.context +
                      " needs exactly one of architecture / "
                      "design_dir");

    // The base documents, captured by the base parser and shared
    // by every copy of the template.
    std::shared_ptr<const json::Value> architecture, package,
        design, operational;
    if (from_dir) {
        requireConfig(!entry.contains("package") &&
                          !entry.contains("design") &&
                          !entry.contains("operational"),
                      generator.context +
                          ": design_dir generators take their "
                          "knob files from the directory");
        const std::filesystem::path dir(
            entry.at("design_dir").asString());
        const std::string resolved =
            dir.is_absolute()
                ? dir.string()
                : (std::filesystem::path(base_dir) / dir)
                      .string();
        requireConfig(std::filesystem::is_directory(resolved),
                      generator.context +
                          ": not a design directory: " +
                          resolved);
        const std::filesystem::path root(resolved);
        requireConfig(
            std::filesystem::exists(root /
                                    "architecture.json"),
            generator.context +
                ": missing architecture.json in " + resolved);
        // Unlike design_dir *scenarios* (re-read per build), a
        // generator snapshots the directory's documents at load
        // time: every point of the space must transform one
        // fixed base.
        architecture =
            std::make_shared<const json::Value>(json::parseFile(
                (root / "architecture.json").string()));
        auto optional_file =
            [&](const char *file) -> std::shared_ptr<
                                      const json::Value> {
            if (!std::filesystem::exists(root / file))
                return nullptr;
            return std::make_shared<const json::Value>(
                json::parseFile((root / file).string()));
        };
        package = optional_file("packageC.json");
        design = optional_file("designC.json");
        operational = optional_file("operationalC.json");
    } else {
        architecture = std::make_shared<const json::Value>(
            entry.at("architecture"));
        auto optional_doc =
            [&](const char *key) -> std::shared_ptr<
                                     const json::Value> {
            if (!entry.contains(key))
                return nullptr;
            return std::make_shared<const json::Value>(
                entry.at(key));
        };
        package = optional_doc("package");
        design = optional_doc("design");
        operational = optional_doc("operational");
    }
    generator.parseBase = [architecture, package, design,
                           operational,
                           context = generator.context](
                              const TechDb &tech) {
        return designBundleFromJson(*architecture, package.get(),
                                    design.get(), operational.get(),
                                    tech, context);
    };

    // Parse the base once now, against the paper's calibration:
    // axis target validation needs the chiplet list, and a
    // schema-broken base must fail at load time with the
    // generator named (same contract as inline scenario entries).
    generator.bindTech(TechDb::defaults());
    const DesignBundle &base = *generator.base;

    const auto &axis_entries = entry.at("axes").asArray();
    requireConfig(!axis_entries.empty(),
                  generator.context +
                      " needs at least one axis");

    for (const auto &axis_entry : axis_entries) {
        GeneratorAxis axis =
            axisFromJson(axis_entry, generator.context);
        const std::string axis_context =
            generator.context + ": axis \"" + axis.name + "\"";

        for (const auto &other : generator.axes) {
            requireConfig(other.name != axis.name,
                          generator.context +
                              ": duplicate axis name \"" +
                              axis.name + "\"");
            // Two splits of one chiplet (or two counts of one
            // tower family) would compose order-dependently;
            // reject instead.
            requireConfig(
                axis.kind != AxisKind::ChipletCount ||
                    other.kind != AxisKind::ChipletCount ||
                    other.chiplet != axis.chiplet,
                axis_context +
                    ": chiplet \"" + axis.chiplet +
                    "\" already split by axis \"" +
                    other.name + "\"");
            requireConfig(
                axis.kind != AxisKind::StackCount ||
                    other.kind != AxisKind::StackCount ||
                    other.groupPrefix != axis.groupPrefix,
                axis_context +
                    ": stack family \"" + axis.groupPrefix +
                    "\" already counted by axis \"" +
                    other.name + "\"");
        }

        if (!axis.chiplet.empty())
            requireConfig(hasChiplet(base.system, axis.chiplet),
                          axis_context +
                              ": base architecture has no "
                              "chiplet \"" +
                              axis.chiplet + "\"");
        if (axis.kind == AxisKind::StackCount) {
            const std::size_t towers =
                towerCount(base.system, axis.groupPrefix);
            requireConfig(
                towers > 0,
                axis_context +
                    ": base architecture has no stack group "
                    "\"" +
                    axis.groupPrefix + "0\"");
            // The exemplar tower must exist and the family must
            // be contiguous, or replication/trimming would leave
            // holes in the numbering.
            std::size_t found = 0;
            std::vector<bool> present(towers, false);
            for (const auto &chiplet : base.system.chiplets) {
                const long tower = towerNumber(
                    chiplet.stackGroup, axis.groupPrefix);
                if (tower < 0)
                    continue;
                if (!present[static_cast<std::size_t>(tower)]) {
                    present[static_cast<std::size_t>(tower)] =
                        true;
                    ++found;
                }
            }
            requireConfig(found == towers,
                          axis_context +
                              ": stack family \"" +
                              axis.groupPrefix +
                              "\" is not contiguously numbered "
                              "from 0");
        }

        generator.axes.push_back(std::move(axis));
    }

    // Instantiate the first point once so transform-level
    // problems also surface at load time, not mid-search.
    ScenarioSpace space(generator);
    space.instantiate(
        std::vector<std::size_t>(generator.axes.size(), 0),
        *generator.baseTech);

    return generator;
}

void
GeneratorTemplate::bindTech(std::shared_ptr<const TechDb> tech)
{
    requireConfig(static_cast<bool>(tech),
                  "generator needs a technology database");
    base = std::make_shared<const DesignBundle>(parseBase(*tech));
    baseTech = std::move(tech);
}

DesignBundle
GeneratorTemplate::baseFor(const TechDb &tech) const
{
    if (&tech == baseTech.get())
        return *base;
    return parseBase(tech);
}

ScenarioSpace::ScenarioSpace(const GeneratorTemplate &generator)
    : generator_(&generator)
{
    // Registry lookups build a space per derived name: the
    // success path stays free of message strings.
    for (const auto &axis : generator.axes) {
        if (axis.size() == 0)
            throw ConfigError(generator.name + ": axis \"" +
                              axis.name +
                              "\": empty axis (needs at least "
                              "one value)");
        if (axis.size() > kMaxPoints / size_)
            throw ConfigError(generator.name +
                              ": scenario space exceeds " +
                              std::to_string(kMaxPoints) +
                              " points");
        size_ *= axis.size();
    }
}

std::vector<std::size_t>
ScenarioSpace::indicesAt(std::size_t flat) const
{
    requireModel(flat < size_,
                 "scenario-space flat index out of range");
    std::vector<std::size_t> indices(axisCount(), 0);
    // Odometer order: the last axis varies fastest.
    for (std::size_t i = axisCount(); i-- > 0;) {
        const std::size_t n = generator_->axes[i].size();
        indices[i] = flat % n;
        flat /= n;
    }
    return indices;
}

std::size_t
ScenarioSpace::flatIndex(
    const std::vector<std::size_t> &indices) const
{
    requireModel(indices.size() == axisCount(),
                 "scenario-space index arity mismatch");
    std::size_t flat = 0;
    for (std::size_t i = 0; i < indices.size(); ++i) {
        requireModel(indices[i] < generator_->axes[i].size(),
                     "scenario-space axis index out of range");
        flat = flat * generator_->axes[i].size() + indices[i];
    }
    return flat;
}

std::string
ScenarioSpace::nameAt(
    const std::vector<std::size_t> &indices) const
{
    requireModel(indices.size() == axisCount(),
                 "scenario-space index arity mismatch");
    std::string name = generator_->name;
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const auto &axis = generator_->axes[i];
        requireModel(indices[i] < axis.size(),
                     "scenario-space axis index out of range");
        name += '/';
        name += axis.name;
        name += '=';
        name += axis.labels[indices[i]];
    }
    return name;
}

std::string
ScenarioSpace::nameAt(std::size_t flat) const
{
    return nameAt(indicesAt(flat));
}

std::optional<std::vector<std::size_t>>
ScenarioSpace::parseName(std::string_view name) const
{
    // Match "<generator>" then "/<axis>=<label>" per axis, in
    // place: no token or label is copied.
    auto consume = [&name](std::string_view token) {
        if (name.substr(0, token.size()) != token)
            return false;
        name.remove_prefix(token.size());
        return true;
    };
    if (!consume(generator_->name))
        return std::nullopt;

    std::vector<std::size_t> indices;
    indices.reserve(axisCount());
    for (const auto &axis : generator_->axes) {
        if (!consume("/") || !consume(axis.name) || !consume("="))
            return std::nullopt;
        const std::string_view label =
            name.substr(0, name.find('/'));
        const auto it = std::find(axis.labels.begin(),
                                  axis.labels.end(), label);
        if (it == axis.labels.end())
            return std::nullopt;
        indices.push_back(static_cast<std::size_t>(
            it - axis.labels.begin()));
        name.remove_prefix(label.size());
    }
    if (!name.empty())
        return std::nullopt;
    return indices;
}

DesignBundle
ScenarioSpace::instantiate(
    const std::vector<std::size_t> &indices,
    const TechDb &tech) const
{
    requireModel(indices.size() == axisCount(),
                 "scenario-space index arity mismatch");

    DesignBundle bundle = generator_->baseFor(tech);

    // Apply axes phase by phase (nodes, splits, stacks,
    // packaging, operating), declaration order within a phase --
    // so the transform composition is independent of the order
    // axes were declared in.
    for (int phase = 0; phase <= 4; ++phase) {
        for (std::size_t i = 0; i < axisCount(); ++i) {
            const auto &axis = generator_->axes[i];
            if (phaseOf(axis.kind) != phase)
                continue;
            const std::size_t pick = indices[i];
            requireModel(pick < axis.size(),
                         "scenario-space axis index out of "
                         "range");

            switch (axis.kind) {
            case AxisKind::NodeNm: {
                // Retarget keeps transistor content; area
                // re-derives from the density model, matching
                // the explorer's sweep semantics.
                const double node = axis.numbers[pick];
                for (auto &chiplet : bundle.system.chiplets)
                    if (axis.chiplet.empty() ||
                        chiplet.name == axis.chiplet)
                        chiplet.nodeNm = node;
                break;
            }
            case AxisKind::ChipletCount: {
                const auto k = static_cast<std::size_t>(
                    axis.numbers[pick]);
                if (k == 1)
                    break;
                auto &chiplets = bundle.system.chiplets;
                const auto it = std::find_if(
                    chiplets.begin(), chiplets.end(),
                    [&](const Chiplet &c) {
                        return c.name == axis.chiplet;
                    });
                if (it == chiplets.end())
                    throw ConfigError(generator_->name +
                                      ": no chiplet \"" +
                                      axis.chiplet +
                                      "\" to split");
                // Split into k even slices named <name>0 ..
                // <name>(k-1); slices after the first share the
                // first's design effort (the paper's
                // design-reuse pattern for identical twins).
                Chiplet exemplar = *it;
                exemplar.transistorsMtr /=
                    static_cast<double>(k);
                std::vector<Chiplet> slices;
                slices.reserve(k);
                for (std::size_t s = 0; s < k; ++s) {
                    Chiplet slice = exemplar;
                    slice.name =
                        axis.chiplet + std::to_string(s);
                    if (s > 0)
                        slice.reused = true;
                    slices.push_back(std::move(slice));
                }
                const auto at = chiplets.erase(it);
                chiplets.insert(at, slices.begin(),
                                slices.end());
                break;
            }
            case AxisKind::StackCount: {
                const auto k = static_cast<std::size_t>(
                    axis.numbers[pick]);
                auto &chiplets = bundle.system.chiplets;
                const std::size_t have =
                    towerCount(bundle.system,
                               axis.groupPrefix);
                if (have == 0)
                    throw ConfigError(generator_->name +
                                      ": no stack group \"" +
                                      axis.groupPrefix +
                                      "0\" to replicate");
                if (k < have) {
                    chiplets.erase(
                        std::remove_if(
                            chiplets.begin(), chiplets.end(),
                            [&](const Chiplet &c) {
                                const long tower =
                                    towerNumber(
                                        c.stackGroup,
                                        axis.groupPrefix);
                                return tower >=
                                       static_cast<long>(k);
                            }),
                        chiplets.end());
                } else if (k > have) {
                    // Replicate the exemplar tower <prefix>0;
                    // clones keep its reuse flags (a second HBM
                    // stack is the same silicon-proven part).
                    const std::string exemplar_group =
                        axis.groupPrefix + "0";
                    std::vector<Chiplet> tiers;
                    std::size_t insert_at = 0;
                    for (std::size_t c = 0;
                         c < chiplets.size(); ++c) {
                        if (towerNumber(
                                chiplets[c].stackGroup,
                                axis.groupPrefix) >= 0)
                            insert_at = c + 1;
                        if (chiplets[c].stackGroup ==
                            exemplar_group)
                            tiers.push_back(chiplets[c]);
                    }
                    std::vector<Chiplet> clones;
                    clones.reserve((k - have) * tiers.size());
                    for (std::size_t tower = have; tower < k;
                         ++tower) {
                        const std::string group =
                            axis.groupPrefix +
                            std::to_string(tower);
                        for (const Chiplet &tier : tiers) {
                            Chiplet clone = tier;
                            clone.stackGroup = group;
                            if (clone.name.compare(
                                    0, exemplar_group.size(),
                                    exemplar_group) == 0)
                                clone.name =
                                    group +
                                    clone.name.substr(
                                        exemplar_group
                                            .size());
                            else
                                clone.name += "-" + group;
                            clones.push_back(
                                std::move(clone));
                        }
                    }
                    chiplets.insert(
                        chiplets.begin() +
                            static_cast<std::ptrdiff_t>(
                                insert_at),
                        clones.begin(), clones.end());
                }
                break;
            }
            case AxisKind::Packaging:
                bundle.config.package.arch =
                    packagingArchFromString(
                        axis.labels[pick]);
                break;
            case AxisKind::LifetimeYears:
                bundle.config.operating.lifetimeYears =
                    axis.numbers[pick];
                break;
            case AxisKind::DutyCycle:
                bundle.config.operating.dutyCycle =
                    axis.numbers[pick];
                break;
            case AxisKind::AvgPowerW:
                bundle.config.operating.avgPowerW =
                    axis.numbers[pick];
                break;
            case AxisKind::UseIntensityGPerKwh:
                bundle.config.operating.useIntensityGPerKwh =
                    axis.numbers[pick];
                break;
            }
        }
    }

    bundle.system.name = nameAt(indices);
    return bundle;
}

} // namespace ecochip
