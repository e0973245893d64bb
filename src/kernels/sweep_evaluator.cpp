#include "kernels/sweep_evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "design/design_model.h"
#include "floorplan/floorplan.h"
#include "manufacture/mfg_model.h"
#include "manufacture/nre_model.h"
#include "noc/router_model.h"
#include "operation/operational_model.h"
#include "package/package_model.h"
#include "support/error.h"
#include "support/units.h"
#include "wafer/wafer_model.h"
#include "yield/yield_model.h"

namespace ecochip {

namespace {

/**
 * Process-wide floorplan memo. A floorplan is a pure function of
 * (spacing, ordered box list); it does not depend on the technology
 * database or configuration, so entries can outlive any single
 * estimator's evaluation cache.
 */
MemoTable<FloorplanResult> &
floorplanMemo()
{
    static MemoTable<FloorplanResult> memo;
    return memo;
}

/** Append a double's raw IEEE-754 bytes (CacheKey layout). */
void
appendRaw(std::string &buf, double v)
{
    char raw[sizeof(double)];
    std::memcpy(raw, &v, sizeof(double));
    buf.append(raw, sizeof(double));
}

/** Append a length-prefixed string (CacheKey layout). */
void
appendRaw(std::string &buf, const std::string &s)
{
    const int size = static_cast<int>(s.size());
    char raw[sizeof(int)];
    std::memcpy(raw, &size, sizeof(int));
    buf.append(raw, sizeof(int));
    buf.append(s);
}

} // namespace

/**
 * Reusable per-sweep buffers. Every point needs a report key, a
 * floorplan key, and a box list; keeping them in one scratch
 * object reused across the whole sweep makes the per-point loop
 * allocation-free once the buffers reach steady-state capacity.
 */
struct SweepEvaluator::Scratch
{
    std::string reportKey;
    std::string floorplanKey;
    std::vector<ChipletBox> boxes;
};

/** Compiled sweep plan: everything invariant across points. */
struct SweepEvaluator::Plan
{
    /** cand[i][j]: chiplet i at its j-th candidate node. */
    std::vector<std::vector<Candidate>> cand;

    /** Node-independent report-key prefix (reportKeyPrefix()). */
    std::string reportPrefix;

    std::vector<std::string> names;
    std::vector<char> reused;

    PackagingArch arch = PackagingArch::RdlFanout;
    double alpha = 0.0;
    double pkgIntensity = 0.0;
    double spacingMm = 0.0;

    // Layered-patterning invariants at the fixed packaging nodes:
    // (layers * EPLA) energy prefactors and defect densities.
    double archLayersEpla = 0.0;
    double archD0 = 0.0;
    double subLayersEpla = 0.0;
    double subD0 = 0.0;

    // Silicon bridge: the per-bridge patterning carbon and bridge
    // yield are point-invariant (fixed bridge area and node).
    double bridgeRangeMm = 1.0;
    double bridgeEmbedYield = 1.0;
    double bridgeYield = 1.0;
    double bridgePerCo2Kg = 0.0;

    // Interposers.
    bool includeWastage = false;
    WaferModel wafer;
    double cfpaSiKgPerCm2 = 0.0;
    double grossCfpaKgPerCm2 = 0.0;  ///< active FEOL, gross
    double routerAreaTotalMm2 = 0.0; ///< active: all routers
    double repeaterFraction = 0.0;
    double activeCommPowerW = 0.0;

    // Vertical bonds.
    double bondPitchSqUm2 = 1.0;
    double bondFailProbability = 0.0;
    double bondEnergyFactor = 0.0;
    double energyPerTsvKwh = 0.0;
    double tierYieldPowAll = 1.0; ///< 3D: all chiplets stacked

    std::vector<GroupTerm> groups; ///< 2.5D stack groups
    std::vector<BoxTerm> boxes;    ///< planarBoxes() replica

    // Design.
    bool hasComm = false;
    bool activeComm = false;
    double commDesignActiveCo2Kg = 0.0;

    bool includeNre = false;

    // Operation.
    bool annualPath = false;
    double annualEnergyKwh = 0.0;
    double annualOnHoursPerYear = 0.0;
    double annualAvgPowerBaseW = 0.0;
    double lifetimeYears = 0.0;
    bool powerOverride = false;
    double overridePowerW = 0.0;
    double onHoursLife = 0.0;
    double useIntensity = 0.0;
};

std::shared_ptr<const SweepEvaluator::Plan>
SweepEvaluator::compile(
    const SystemSpec &system,
    const std::vector<std::vector<double>> &candidates_per_chiplet)
    const
{
    // One plan per (system identity, candidate grid); memoized in
    // the estimator's kernel cache so repeated sweeps (DSE loops,
    // benchmarks) skip compilation entirely.
    std::string prefix = EcoChip::reportKeyPrefix(system);
    CacheKey ck;
    ck.tag('K').add(std::string_view(prefix));
    for (const auto &list : candidates_per_chiplet) {
        ck.add(static_cast<int>(list.size()));
        for (double node : list)
            ck.add(node);
    }
    const std::string plan_key = std::move(ck).str();
    {
        std::shared_ptr<const void> hit;
        if (estimator_->cache_->kernel.find(plan_key, hit))
            return std::static_pointer_cast<const Plan>(hit);
    }

    requireConfig(!system.chiplets.empty(),
                  "system has no chiplets");

    const EcoChipConfig &config = estimator_->config_;
    const TechDb &tech = *estimator_->tech_;
    const PackageParams &pp = config.package;
    const std::size_t n = system.chiplets.size();
    const double nc = static_cast<double>(n);

    // Constructing the scalar models up front reproduces every
    // configuration validation (same exceptions, same messages) the
    // scalar path would raise on the first point.
    ManufacturingModel mfg(tech, config.wafer,
                           config.fabIntensityGPerKwh,
                           config.yieldModel);
    mfg.setIncludeWastage(config.includeWastage);
    const PackageModel packageModel(tech, mfg, pp);
    static_cast<void>(packageModel);
    RouterModel router(tech, pp.router);
    PhyModel phy(tech, pp.router.flitWidthBits);
    DesignModel design(tech, config.design);
    OperationalModel operation(tech, config.operating);

    auto plan = std::make_shared<Plan>();
    plan->reportPrefix = std::move(prefix);
    plan->arch = pp.arch;
    plan->alpha = tech.clusteringAlpha();
    plan->pkgIntensity = pp.intensityGPerKwh;
    plan->spacingMm = pp.spacingMm;

    // --- packaging invariants ---------------------------------
    // The organic base substrate under bridge/interposer/3D
    // packages: coarse RDL layers at the fixed RDL node.
    plan->subLayersEpla = pp.substrateBaseLayers *
                          tech.eplaRdlKwhPerCm2(pp.rdlNodeNm);
    plan->subD0 = tech.rdlDefectDensityPerCm2(pp.rdlNodeNm);
    // Replicate the checked yield call's argument validation once.
    negativeBinomialYield(0.0, plan->subD0, plan->alpha);

    switch (pp.arch) {
      case PackagingArch::RdlFanout:
        plan->archLayersEpla =
            pp.rdlLayers * tech.eplaRdlKwhPerCm2(pp.rdlNodeNm);
        plan->archD0 = tech.rdlDefectDensityPerCm2(pp.rdlNodeNm);
        break;
      case PackagingArch::SiliconBridge: {
        plan->bridgeRangeMm = pp.bridgeRangeMm;
        plan->bridgeEmbedYield = pp.bridgeEmbedYield;
        plan->bridgeYield = negativeBinomialYield(
            pp.bridgeAreaMm2 * units::kCm2PerMm2,
            tech.bridgeDefectDensityPerCm2(pp.bridgeNodeNm),
            plan->alpha);
        // One bridge's patterning carbon, exactly as the scalar
        // layeredPatterningCo2Kg computes it.
        if (!(plan->bridgeYield > 0.0 && plan->bridgeYield <= 1.0))
            throw ModelError("package layer yield out of range");
        const double bridge_cm2 =
            pp.bridgeAreaMm2 * units::kCm2PerMm2;
        const double bridge_kwh =
            pp.bridgeLayers *
            tech.eplaBridgeKwhPerCm2(pp.bridgeNodeNm) * bridge_cm2;
        plan->bridgePerCo2Kg =
            units::carbonKg(pp.intensityGPerKwh, bridge_kwh) /
            plan->bridgeYield;
        break;
      }
      case PackagingArch::PassiveInterposer:
      case PackagingArch::ActiveInterposer: {
        const double node = pp.interposerNodeNm;
        plan->archLayersEpla = pp.interposerBeolLayers *
                               tech.eplaInterposerKwhPerCm2(node);
        plan->archD0 =
            pp.arch == PackagingArch::ActiveInterposer
                ? tech.defectDensityPerCm2(node)
                : tech.interposerDefectDensityPerCm2(node);
        negativeBinomialYield(0.0, plan->archD0, plan->alpha);
        plan->includeWastage = mfg.includeWastage();
        plan->wafer = mfg.wafer();
        plan->cfpaSiKgPerCm2 = tech.cfpaSiKgPerCm2(node);
        if (pp.arch == PackagingArch::ActiveInterposer) {
            plan->grossCfpaKgPerCm2 = mfg.grossCfpaKgPerCm2(node);
            plan->routerAreaTotalMm2 = router.areaMm2(node) * nc;
            plan->repeaterFraction = pp.repeaterAreaFraction;
            plan->activeCommPowerW =
                router.powerW(node, pp.nocFlitRateHz) * nc;
        }
        break;
      }
      case PackagingArch::Stack3d:
        break;
    }

    // Stack groups (2.5D) / whole-system tower (3D).
    bool has_bonds = pp.arch == PackagingArch::Stack3d;
    if (pp.arch == PackagingArch::Stack3d) {
        plan->tierYieldPowAll = std::pow(
            pp.tierAssemblyYield, static_cast<int>(n) - 1);
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            const std::string &group =
                system.chiplets[i].stackGroup;
            if (group.empty())
                continue;
            bool seen = false;
            for (const auto &g : plan->groups)
                seen |= system.chiplets[g.members.front()]
                            .stackGroup == group;
            if (seen)
                continue;
            GroupTerm term;
            for (std::size_t k = 0; k < n; ++k)
                if (system.chiplets[k].stackGroup == group)
                    term.members.push_back(k);
            if (term.members.size() < 2)
                requireConfig(false,
                              "stack group \"" + group +
                                  "\" needs at least two tiers");
            term.tiers = static_cast<int>(term.members.size());
            term.tierYieldPow =
                std::pow(pp.tierAssemblyYield, term.tiers - 1);
            plan->groups.push_back(std::move(term));
            has_bonds = true;
        }
    }
    if (has_bonds) {
        const double pitch_um = pp.bondPitchUm();
        plan->bondPitchSqUm2 = pitch_um * pitch_um;
        plan->bondFailProbability = pp.bondFailProbability();
        requireConfig(plan->bondFailProbability >= 0.0 &&
                          plan->bondFailProbability < 1.0,
                      "bond failure probability must be in [0, 1)");
        plan->bondEnergyFactor = pp.bondEnergyFactor();
        plan->energyPerTsvKwh =
            tech.energyPerTsvKwh(pp.bondProcessNodeNm);
    }

    // Floorplan boxes in planarBoxes() order: planar chiplets by
    // position, each stack group once at its first member.
    if (pp.arch != PackagingArch::Stack3d) {
        std::vector<std::string> seen_groups;
        for (std::size_t i = 0; i < n; ++i) {
            const Chiplet &chiplet = system.chiplets[i];
            if (chiplet.stackGroup.empty()) {
                plan->boxes.push_back({chiplet.name, {i}});
                continue;
            }
            bool seen = false;
            for (const auto &g : seen_groups)
                seen |= g == chiplet.stackGroup;
            if (seen)
                continue;
            seen_groups.push_back(chiplet.stackGroup);
            BoxTerm box;
            box.label = chiplet.stackGroup;
            for (std::size_t k = 0; k < n; ++k)
                if (system.chiplets[k].stackGroup ==
                    chiplet.stackGroup)
                    box.members.push_back(k);
            plan->boxes.push_back(std::move(box));
        }
    }

    // --- design / NRE / operation invariants ------------------
    double comm_mtr = 0.0;
    switch (pp.arch) {
      case PackagingArch::RdlFanout:
      case PackagingArch::SiliconBridge:
        comm_mtr = phy.transistorsMtr() * nc;
        break;
      case PackagingArch::PassiveInterposer:
      case PackagingArch::Stack3d:
      case PackagingArch::ActiveInterposer:
        comm_mtr = router.transistorsMtr() * nc;
        break;
    }
    plan->hasComm = comm_mtr > 0.0;
    plan->activeComm = pp.arch == PackagingArch::ActiveInterposer;

    // Replicates DesignModel::systemDesignCo2Kg's communication-IP
    // term for a given implementation node.
    const DesignParams &dp = config.design;
    auto commDesignTerm = [&](double node_nm) {
        const double comm_gates =
            comm_mtr * dp.gatesPerTransistor;
        const double spr = dp.sprHoursPerMgate * comm_gates;
        const double analyze = dp.analyzeFraction * spr;
        const double iterative = (spr + analyze) *
                                 dp.designIterations /
                                 design.edaProductivityFit(node_nm);
        const double verif = dp.verifMultiple * iterative;
        const double hours = verif + iterative;
        const double energy_kwh =
            hours * dp.pdesW * units::kKwhPerWh;
        const double comm_co2 =
            units::carbonKg(dp.intensityGPerKwh, energy_kwh);
        return comm_co2 / dp.systemVolume;
    };
    if (plan->hasComm && plan->activeComm)
        plan->commDesignActiveCo2Kg =
            commDesignTerm(pp.interposerNodeNm);

    plan->includeNre = config.includeMaskNre;
    NreCarbonModel nre(tech, config.fabIntensityGPerKwh,
                       config.design.chipletVolume);

    const OperatingSpec &os = config.operating;
    plan->lifetimeYears = os.lifetimeYears;
    plan->useIntensity = os.useIntensityGPerKwh;
    if (os.annualEnergyKwh) {
        plan->annualPath = true;
        plan->annualEnergyKwh = *os.annualEnergyKwh;
        plan->annualOnHoursPerYear =
            os.dutyCycle * units::kHoursPerYear;
        plan->annualAvgPowerBaseW = *os.annualEnergyKwh /
                                    units::kKwhPerWh /
                                    plan->annualOnHoursPerYear;
    } else {
        plan->powerOverride = os.avgPowerW.has_value();
        if (plan->powerOverride)
            plan->overridePowerW = *os.avgPowerW;
        plan->onHoursLife = os.lifetimeYears *
                            units::kHoursPerYear * os.dutyCycle;
    }

    // --- per-(chiplet, candidate) terms -----------------------
    const bool use_phy = pp.arch == PackagingArch::RdlFanout ||
                         pp.arch == PackagingArch::SiliconBridge;
    const bool per_chiplet_comm =
        pp.arch != PackagingArch::ActiveInterposer;
    const double bit_rate_hz =
        pp.nocFlitRateHz * pp.router.flitWidthBits;
    const bool need_powers =
        !plan->annualPath && !plan->powerOverride;

    plan->cand.resize(n);
    plan->names.resize(n);
    plan->reused.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        Chiplet chiplet = system.chiplets[i];
        plan->names[i] = chiplet.name;
        plan->reused[i] = chiplet.reused ? 1 : 0;
        auto &column = plan->cand[i];
        column.reserve(candidates_per_chiplet[i].size());
        for (double node : candidates_per_chiplet[i]) {
            chiplet.nodeNm = node;
            Candidate c;
            c.nodeNm = node;
            const double area = chiplet.areaMm2(tech);
            c.bare = estimator_->cachedDieMfg(mfg, area, node);
            if (per_chiplet_comm) {
                const double added = use_phy
                                         ? phy.areaMm2(node)
                                         : router.areaMm2(node);
                c.commAreaMm2 = added;
                c.commPowerW =
                    use_phy
                        ? phy.powerW(node, bit_rate_hz)
                        : router.powerW(node, pp.nocFlitRateHz);
                // Growth delta, exactly like addedAreaCo2Kg: the
                // grown die is never cached in the scalar path.
                if (added > 0.0)
                    c.commDeltaCo2Kg =
                        mfg.dieMfg(area + added, node)
                            .totalCo2Kg() -
                        c.bare.totalCo2Kg();
            }
            if (!chiplet.reused)
                c.designAmortizedCo2Kg =
                    estimator_
                        ->cachedChipletDesign(design, chiplet)
                        .amortizedCo2Kg;
            if (need_powers)
                c.chipletPowerW = operation.chipletPowerW(chiplet);
            if (plan->includeNre)
                c.nreCo2Kg = nre.amortizedCo2Kg(chiplet);
            if (i == 0 && plan->hasComm && !plan->activeComm)
                c.commDesignCo2Kg = commDesignTerm(node);
            column.push_back(std::move(c));
        }
    }

    estimator_->cache_->kernel.store(
        plan_key, std::shared_ptr<const void>(plan));
    return plan;
}

CarbonReport
SweepEvaluator::evaluatePoint(const Plan &plan,
                              const std::vector<std::size_t> &idx,
                              Scratch &scratch) const
{
    const std::size_t n = plan.cand.size();
    auto at = [&](std::size_t i) -> const Candidate & {
        return plan.cand[i][idx[i]];
    };

    // Report key: invariant prefix + the point's raw node doubles,
    // matching EcoChip::reportKey byte for byte.
    std::string &key = scratch.reportKey;
    key.assign(plan.reportPrefix);
    for (std::size_t i = 0; i < n; ++i)
        appendRaw(key, at(i).nodeNm);
    {
        CarbonReport cached;
        if (estimator_->cache_->report.find(key, cached))
            return cached;
    }

    CarbonReport report;

    // --- manufacturing ----------------------------------------
    double mfg_total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        mfg_total += at(i).bare.totalCo2Kg();
    report.mfgCo2Kg = mfg_total;

    // --- packaging (HiResult) ---------------------------------
    HiResult hi;
    auto patterningCo2 = [&](double layers_epla, double area_cm2,
                             double yield) {
        if (!(yield > 0.0 && yield <= 1.0))
            throw ModelError("package layer yield out of range");
        const double energy_kwh = layers_epla * area_cm2;
        return units::carbonKg(plan.pkgIntensity, energy_kwh) /
               yield;
    };
    auto substrateCo2 = [&](double area_mm2) {
        const double area_cm2 = area_mm2 * units::kCm2PerMm2;
        const double yield = negativeBinomialYieldFast(
            area_cm2, plan.subD0, plan.alpha);
        return patterningCo2(plan.subLayersEpla, area_cm2, yield);
    };
    auto bondCo2 = [&](double footprint_mm2, int nt,
                       double tier_pow) {
        const double vias =
            std::floor(footprint_mm2 * units::kUm2PerMm2 /
                       plan.bondPitchSqUm2);
        const double bond_events = vias * (nt - 1);
        const double yield =
            std::exp(-bond_events * plan.bondFailProbability) *
            tier_pow;
        const double energy_kwh =
            vias * plan.bondEnergyFactor * plan.energyPerTsvKwh;
        hi.bondCount += vias;
        hi.packageYield *= yield;
        return units::carbonKg(plan.pkgIntensity, energy_kwh) /
               yield;
    };
    auto commOverheads = [&]() {
        for (std::size_t i = 0; i < n; ++i) {
            hi.routingCo2Kg += at(i).commDeltaCo2Kg;
            hi.commAreaMm2 += at(i).commAreaMm2;
            hi.nocPowerW += at(i).commPowerW;
        }
    };

    if (plan.arch == PackagingArch::Stack3d) {
        double footprint_mm2 = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            footprint_mm2 =
                std::max(footprint_mm2, at(i).bare.areaMm2);
        const double bonds =
            bondCo2(footprint_mm2, static_cast<int>(n),
                    plan.tierYieldPowAll);
        hi.stackBondCo2Kg = bonds;
        hi.packageCo2Kg = bonds + substrateCo2(footprint_mm2);
        hi.packageAreaMm2 = footprint_mm2;
        hi.whitespaceAreaMm2 = 0.0;
        commOverheads();
    } else {
        // Floorplan: memoized process-wide on (spacing, boxes).
        FloorplanResult fp;
        {
            std::vector<ChipletBox> &boxes = scratch.boxes;
            boxes.clear();
            boxes.reserve(plan.boxes.size());
            std::string &fkey = scratch.floorplanKey;
            fkey.clear();
            fkey.push_back('F');
            appendRaw(fkey, plan.spacingMm);
            for (const auto &box : plan.boxes) {
                double area_mm2 = 0.0;
                for (std::size_t m : box.members)
                    area_mm2 =
                        std::max(area_mm2, at(m).bare.areaMm2);
                appendRaw(fkey, box.label);
                appendRaw(fkey, area_mm2);
                boxes.push_back({box.label, area_mm2, 1.0});
            }
            if (!floorplanMemo().find(fkey, fp)) {
                fp = Floorplanner(plan.spacingMm).plan(boxes);
                floorplanMemo().store(fkey, fp);
            }
        }
        hi.packageAreaMm2 = fp.areaMm2();
        hi.whitespaceAreaMm2 = fp.whitespaceAreaMm2;
        const double pkg_area_mm2 = fp.areaMm2();
        const double area_cm2 = pkg_area_mm2 * units::kCm2PerMm2;

        switch (plan.arch) {
          case PackagingArch::RdlFanout: {
            const double yield = negativeBinomialYieldFast(
                area_cm2, plan.archD0, plan.alpha);
            hi.packageCo2Kg = patterningCo2(plan.archLayersEpla,
                                            area_cm2, yield);
            hi.packageYield = yield;
            commOverheads();
            break;
          }
          case PackagingArch::SiliconBridge: {
            int bridges = 0;
            for (const auto &adj : fp.adjacencies)
                bridges += std::max(
                    1, static_cast<int>(std::ceil(
                           adj.overlapMm / plan.bridgeRangeMm)));
            bridges = std::max(bridges,
                               static_cast<int>(n) - 1);
            hi.bridgeCount = bridges;
            const double embed_yield =
                std::pow(plan.bridgeEmbedYield, bridges);
            const double substrate = substrateCo2(pkg_area_mm2);
            hi.packageCo2Kg =
                (substrate + bridges * plan.bridgePerCo2Kg) /
                embed_yield;
            hi.packageYield =
                embed_yield * std::pow(plan.bridgeYield, bridges);
            commOverheads();
            break;
          }
          case PackagingArch::PassiveInterposer:
          case PackagingArch::ActiveInterposer: {
            const double beol_yield = negativeBinomialYieldFast(
                area_cm2, plan.archD0, plan.alpha);
            const double beol = patterningCo2(
                plan.archLayersEpla, area_cm2, beol_yield);
            const double wasted_mm2 =
                plan.includeWastage
                    ? plan.wafer.wastedAreaPerDieMm2(pkg_area_mm2)
                    : 0.0;
            const double wastage = plan.cfpaSiKgPerCm2 *
                                   wasted_mm2 * units::kCm2PerMm2;
            hi.packageCo2Kg =
                beol + wastage + substrateCo2(pkg_area_mm2);
            hi.packageYield = beol_yield;
            if (plan.arch == PackagingArch::ActiveInterposer) {
                const double repeater_area =
                    plan.repeaterFraction * pkg_area_mm2;
                const double feol_cfpa =
                    plan.grossCfpaKgPerCm2 / beol_yield;
                hi.routingCo2Kg = feol_cfpa *
                                  plan.routerAreaTotalMm2 *
                                  units::kCm2PerMm2;
                hi.packageCo2Kg += feol_cfpa * repeater_area *
                                   units::kCm2PerMm2;
                hi.commAreaMm2 = plan.routerAreaTotalMm2;
                hi.nocPowerW = plan.activeCommPowerW;
            } else {
                commOverheads();
            }
            break;
          }
          case PackagingArch::Stack3d:
            break; // handled before the floorplan branch
        }

        for (const auto &group : plan.groups) {
            double footprint_mm2 = 0.0;
            for (std::size_t m : group.members)
                footprint_mm2 =
                    std::max(footprint_mm2, at(m).bare.areaMm2);
            hi.stackBondCo2Kg += bondCo2(
                footprint_mm2, group.tiers, group.tierYieldPow);
        }
        hi.packageCo2Kg += hi.stackBondCo2Kg;
    }
    report.hi = hi;

    // --- design -----------------------------------------------
    double per_part = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        if (!plan.reused[i])
            per_part += at(i).designAmortizedCo2Kg;
    if (plan.hasComm)
        per_part += plan.activeComm ? plan.commDesignActiveCo2Kg
                                    : at(0).commDesignCo2Kg;
    report.designCo2Kg = per_part;

    // --- mask-set NRE -----------------------------------------
    if (plan.includeNre) {
        double nre_total = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            nre_total += at(i).nreCo2Kg;
        report.nreCo2Kg = nre_total;
    }

    // --- operation --------------------------------------------
    OperationalBreakdown op;
    const double extra_power_w = hi.nocPowerW;
    if (plan.annualPath) {
        const double extra_kwh_per_year =
            extra_power_w * plan.annualOnHoursPerYear *
            units::kKwhPerWh;
        op.lifetimeEnergyKwh =
            (plan.annualEnergyKwh + extra_kwh_per_year) *
            plan.lifetimeYears;
        op.avgPowerW = plan.annualAvgPowerBaseW + extra_power_w;
    } else {
        if (!(extra_power_w >= 0.0))
            throw ConfigError("extra power must be non-negative");
        if (plan.powerOverride) {
            op.avgPowerW = plan.overridePowerW + extra_power_w;
        } else {
            double total_w = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                total_w += at(i).chipletPowerW;
            op.avgPowerW = total_w + extra_power_w;
        }
        op.lifetimeEnergyKwh =
            op.avgPowerW * plan.onHoursLife * units::kKwhPerWh;
    }
    op.co2Kg =
        units::carbonKg(plan.useIntensity, op.lifetimeEnergyKwh);
    report.operation = op;

    // --- per-chiplet detail -----------------------------------
    report.chiplets.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const Candidate &c = at(i);
        ChipletReport cr;
        cr.name = plan.names[i];
        cr.nodeNm = c.nodeNm;
        cr.areaMm2 = c.bare.areaMm2;
        cr.yield = c.bare.yield;
        cr.mfgCo2Kg = c.bare.totalCo2Kg();
        cr.designCo2Kg =
            plan.reused[i] ? 0.0 : c.designAmortizedCo2Kg;
        report.chiplets.push_back(std::move(cr));
    }

    estimator_->cache_->report.store(key, report);
    return report;
}

std::vector<ExplorationPoint>
SweepEvaluator::sweep(
    const SystemSpec &system,
    const std::vector<std::vector<double>> &candidates_per_chiplet)
    const
{
    // Monolithic systems bypass every packaging/comm code path the
    // plan hoists; the scalar estimator is already a single cached
    // die evaluation there.
    const bool batched = !system.isMonolithic();
    std::shared_ptr<const Plan> plan;
    if (batched)
        plan = compile(system, candidates_per_chiplet);

    std::size_t total = 1;
    for (const auto &candidates : candidates_per_chiplet)
        total *= candidates.size();

    Scratch scratch;
    std::vector<ExplorationPoint> points;
    points.reserve(total);
    std::vector<double> assignment(system.chiplets.size());
    std::vector<std::size_t> idx(system.chiplets.size(), 0);
    while (true) {
        for (std::size_t i = 0; i < idx.size(); ++i)
            assignment[i] = candidates_per_chiplet[i][idx[i]];

        ExplorationPoint point;
        point.nodesNm = assignment;
        // withNodes() first: it owns the per-point node validation.
        point.system = system.withNodes(assignment);
        point.report = batched
                           ? evaluatePoint(*plan, idx, scratch)
                           : estimator_->estimate(point.system);
        points.push_back(std::move(point));

        std::size_t digit = idx.size();
        while (digit > 0) {
            --digit;
            if (++idx[digit] <
                candidates_per_chiplet[digit].size())
                break;
            idx[digit] = 0;
            if (digit == 0)
                return points;
        }
    }
}

} // namespace ecochip
