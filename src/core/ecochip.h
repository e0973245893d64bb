/**
 * @file
 * Top-level ECO-CHIP estimator (paper Sec. III, Eqs. 1-3):
 *
 *   Ctot = Cemb + lifetime * Cop
 *   Cemb = Cmfg + Cdes + CHI
 *   Cop  = Csrc,use * Euse
 *
 * Binds the manufacturing, packaging, design, operational, ACT, and
 * cost models to one technology database and one configuration.
 */

#ifndef ECOCHIP_CORE_ECOCHIP_H
#define ECOCHIP_CORE_ECOCHIP_H

#include <memory>
#include <string>
#include <vector>

#include "act/act_model.h"
#include "chiplet/chiplet.h"
#include "core/eval_cache.h"
#include "cost/cost_model.h"
#include "design/design_model.h"
#include "manufacture/mfg_model.h"
#include "operation/operational_model.h"
#include "package/package_model.h"
#include "tech/tech_db.h"
#include "wafer/wafer_model.h"

namespace ecochip {

/** Complete estimator configuration (paper Sec. IV defaults). */
struct EcoChipConfig
{
    /** Wafer geometry (450 mm in the paper's results). */
    WaferModel wafer = WaferModel();

    /** Fab energy carbon intensity Cmfg,src (coal: 700 g/kWh). */
    double fabIntensityGPerKwh = 700.0;

    /** Die-yield statistics (paper default: Eq. 4's NB model). */
    YieldModelKind yieldModel = YieldModelKind::NegativeBinomial;

    /** Charge wafer-periphery wastage to each die (Fig. 3). */
    bool includeWastage = true;

    /**
     * Charge amortized photomask-set manufacturing carbon (the
     * Sec. V-C NRE extension; off by default to match the paper's
     * base model).
     */
    bool includeMaskNre = false;

    /** Packaging architecture and knobs. */
    PackageParams package;

    /** Design-CFP knobs (Ndes, Pdes, volumes). */
    DesignParams design;

    /** Operating specification (lifetime, duty cycle, source). */
    OperatingSpec operating;
};

/** Per-chiplet slice of a carbon report. */
struct ChipletReport
{
    std::string name;
    double nodeNm = 0.0;
    double areaMm2 = 0.0;
    double yield = 1.0;
    double mfgCo2Kg = 0.0;
    double designCo2Kg = 0.0; ///< amortized per part
};

/** Full carbon report for one system evaluation. */
struct CarbonReport
{
    /** Manufacturing carbon Cmfg (kg CO2). */
    double mfgCo2Kg = 0.0;

    /** HI packaging + communication overheads CHI. */
    HiResult hi;

    /** Amortized design carbon Cdes per part (kg CO2). */
    double designCo2Kg = 0.0;

    /**
     * Amortized mask-set NRE carbon per part (kg CO2); zero
     * unless EcoChipConfig::includeMaskNre is set.
     */
    double nreCo2Kg = 0.0;

    /** Operational energy/carbon over the lifetime. */
    OperationalBreakdown operation;

    /** Per-chiplet detail (per-block for monolithic dies). */
    std::vector<ChipletReport> chiplets;

    /** Embodied carbon Cemb = Cmfg + Cdes + CHI (+NRE), kg CO2. */
    double
    embodiedCo2Kg() const
    {
        return mfgCo2Kg + hi.totalCo2Kg() + designCo2Kg +
               nreCo2Kg;
    }

    /** Total carbon Ctot = Cemb + lifetime Cop (kg CO2). */
    double
    totalCo2Kg() const
    {
        return embodiedCo2Kg() + operation.co2Kg;
    }
};

/**
 * Memoized sub-evaluations of one (tech, config) pair.
 *
 * Bound to the exact technology database and configuration of the
 * estimator that created it; EcoChip swaps in a fresh cache
 * whenever its configuration changes. Copied estimators share the
 * cache (their tech/config values are identical), which is what
 * lets a session's analyses reuse each other's interpolations.
 */
struct EvalCache
{
    /** Per-die manufacturing, keyed by (area, node). */
    MemoTable<MfgBreakdown> mfg;

    /** Per-chiplet design carbon, keyed by (type, node, NT). */
    MemoTable<DesignBreakdown> design;

    /** Whole-system reports, keyed by the full system spec. */
    MemoTable<CarbonReport> report;

    /**
     * Precomputed batch-evaluation plans (src/kernels/), keyed by
     * the sweep or trial structure they were built for. Stored
     * type-erased; each kernel knows the concrete plan type it
     * stores. Shares the cache's lifetime rules: invalidated
     * wholesale when the configuration changes.
     */
    MemoTable<std::shared_ptr<const void>> kernel;
};

/**
 * The ECO-CHIP estimator.
 *
 * Owns its configuration and shares its (immutable) technology
 * database; `estimate()` is const and thread-safe (the internal
 * evaluation cache is guarded by reader/writer locks), so sweeps
 * can share one instance.
 */
class EcoChip
{
  public:
    /**
     * @param config Estimator configuration.
     * @param tech Technology calibration (defaults to the paper's).
     */
    explicit EcoChip(EcoChipConfig config = EcoChipConfig(),
                     TechDb tech = TechDb());

    /**
     * @param config Estimator configuration.
     * @param tech Shared technology calibration (non-null).
     */
    EcoChip(EcoChipConfig config,
            std::shared_ptr<const TechDb> tech);

    /** Technology database in use. */
    const TechDb &tech() const { return *tech_; }

    /** The same database, shared (never null). */
    const std::shared_ptr<const TechDb> &sharedTech() const
    {
        return tech_;
    }

    /** Configuration in use. */
    const EcoChipConfig &config() const { return config_; }

    /** Replace the configuration (for parameter sweeps). */
    void setConfig(EcoChipConfig config);

    /**
     * Estimate the full carbon report of a system (Eqs. 1-3).
     *
     * @param system Monolithic or chiplet-based system.
     */
    CarbonReport estimate(const SystemSpec &system) const;

    /** ACT-baseline embodied carbon of the same system (kg CO2). */
    double actEmbodiedCo2Kg(const SystemSpec &system) const;

    /** Dollar cost of the system under the configured package. */
    CostBreakdown cost(const SystemSpec &system) const;

    /** Cost with explicit cost knobs. */
    CostBreakdown cost(const SystemSpec &system,
                       const CostParams &cost_params) const;

    /**
     * The evaluation cache backing this estimator (never null).
     * Exposed for cache-statistics tests and benchmarks.
     */
    const EvalCache &cache() const { return *cache_; }

  private:
    // The data-oriented batch kernels reuse the estimator's memo
    // tables and key layout so scalar and batch evaluations hit
    // the same cache entries.
    friend class BatchEvaluator;
    friend class SweepEvaluator;

    /**
     * Exact memo key of a full-system evaluation: every SystemSpec
     * field that reaches the models. Layout: reportKeyPrefix()
     * followed by each chiplet's node (raw doubles, in order), so
     * sweep kernels rebuild only the node suffix per point.
     */
    static std::string reportKey(const SystemSpec &system);

    /** Node-independent prefix of reportKey(). */
    static std::string reportKeyPrefix(const SystemSpec &system);

    MfgBreakdown cachedDieMfg(const ManufacturingModel &mfg,
                              double area_mm2,
                              double node_nm) const;
    DesignBreakdown cachedChipletDesign(const DesignModel &design,
                                        const Chiplet &chiplet) const;

    std::shared_ptr<const TechDb> tech_;
    EcoChipConfig config_;
    std::shared_ptr<EvalCache> cache_;
};

} // namespace ecochip

#endif // ECOCHIP_CORE_ECOCHIP_H
