/**
 * @file
 * Per-node technology parameter database.
 *
 * Every analytical expression in the paper is parameterized by the
 * process node p. This database realizes Table I: each parameter is
 * a piecewise-linear table keyed by node (nm) with anchor points at
 * {3, 5, 7, 10, 14, 22, 28, 40, 65} nm, interpolated for
 * intermediate nodes and clamped outside the range.
 *
 * All published per-area fab numbers are stored per cm^2 exactly as
 * in Table I; query helpers convert at the boundary where needed.
 */

#ifndef ECOCHIP_TECH_TECH_DB_H
#define ECOCHIP_TECH_TECH_DB_H

#include <memory>
#include <vector>

#include "support/interp.h"
#include "tech/design_type.h"

namespace ecochip {

/**
 * Technology database with the paper's default calibration.
 *
 * The defaults realize the Table I ranges:
 *  - D0: 0.07 - 0.3 /cm^2 (older nodes lower)
 *  - DT: 5 - 150 MTr/mm^2 (three curves, logic fastest)
 *  - EPA: 0.8 - 3.5 kWh/cm^2
 *  - Cgas: 0.1 - 0.5 kg CO2/cm^2; Cmaterial: 0.5 kg CO2/cm^2
 *  - eta_eq, eta_EDA in (0, 1]
 *  - EPLA (RDL / bridge / interposer): 0.05 - 0.35 kWh/cm^2/layer
 *
 * All tables may be overridden for calibration studies.
 */
class TechDb
{
  public:
    /** Construct with the paper-default calibration. */
    TechDb();

    /**
     * The paper-default calibration, built once and shared: the
     * database every binding without an explicit one refers to.
     */
    static const std::shared_ptr<const TechDb> &defaults();

    /** Default node anchors present in every table. */
    static const std::vector<double> &standardNodesNm();

    /**
     * Random (clustered) defect density D0(p).
     *
     * @param node_nm Process node in nm.
     * @return Defects per cm^2.
     */
    double defectDensityPerCm2(double node_nm) const;

    /** Negative-binomial clustering parameter alpha (Table I: 3). */
    double clusteringAlpha() const { return clusteringAlpha_; }

    /**
     * Transistor density DT(d, p) for a design type.
     *
     * @param type Logic / Memory / Analog.
     * @param node_nm Process node in nm.
     * @return Density in MTr per mm^2.
     */
    double transistorDensityMtrPerMm2(DesignType type,
                                      double node_nm) const;

    /**
     * Area-scaling model (paper Sec. III-C(1)):
     * Adie(d, p) = NT / DT(d, p).
     *
     * @param type Design type selecting the density curve.
     * @param node_nm Target node in nm.
     * @param transistors_mtr Transistor count in millions.
     * @return Die area in mm^2.
     */
    double dieAreaMm2(DesignType type, double node_nm,
                      double transistors_mtr) const;

    /**
     * Inverse of the area model: transistor count for a block of
     * known area at a known node.
     *
     * @return Transistor count in millions.
     */
    double transistorsMtr(DesignType type, double node_nm,
                          double area_mm2) const;

    /** Fab energy per unit area EPA(p), kWh per cm^2. */
    double epaKwhPerCm2(double node_nm) const;

    /** Direct GHG process emissions Cgas(p), kg CO2 per cm^2. */
    double cgasKgPerCm2(double node_nm) const;

    /** Material sourcing footprint, kg CO2 per cm^2. */
    double cmaterialKgPerCm2(double node_nm) const;

    /**
     * Raw-silicon footprint used for wasted wafer periphery, kg CO2
     * per cm^2 (CFPA_Si in Eq. 5). Wasted silicon sees material and
     * base wafer processing cost but not the die's patterning
     * energy.
     */
    double cfpaSiKgPerCm2(double node_nm) const;

    /**
     * Process-equipment energy-efficiency derate eta_eq(p) in
     * (0, 1]; mature nodes run on more efficient equipment.
     */
    double equipmentDerate(double node_nm) const;

    /**
     * EDA productivity factor eta_EDA(p) in (0, 1]; mature nodes
     * design faster (Eq. 13 divides by this).
     */
    double edaProductivity(double node_nm) const;

    /**
     * Anchor samples of the eta_EDA curve, for the design model's
     * near-linear regression (paper Sec. III-E).
     */
    std::vector<std::pair<double, double>> edaProductivitySamples()
        const;

    /** Energy per RDL metal layer per area, kWh/cm^2/layer. */
    double eplaRdlKwhPerCm2(double node_nm) const;

    /**
     * Energy per silicon-bridge metal layer per area (ultra-fine
     * L/S lower-metal patterning), kWh/cm^2/layer.
     */
    double eplaBridgeKwhPerCm2(double node_nm) const;

    /** Energy per interposer BEOL layer per area, kWh/cm^2/layer. */
    double eplaInterposerKwhPerCm2(double node_nm) const;

    /**
     * Energy to pattern/manufacture one TSV, microbump, or hybrid
     * bond, in kWh per connection (EPA_TSV,bump,bond in Eq. 11).
     */
    double energyPerTsvKwh(double node_nm) const;

    /**
     * Effective defect density seen by coarse RDL layers (large
     * L/S; derated D0).
     */
    double rdlDefectDensityPerCm2(double node_nm) const;

    /**
     * Effective defect density seen by fine-pitch bridge layers
     * (full D0; "EMIB yields lower than RDL", Sec. II-C).
     */
    double bridgeDefectDensityPerCm2(double node_nm) const;

    /** Effective defect density of interposer BEOL layers. */
    double interposerDefectDensityPerCm2(double node_nm) const;

    /**
     * Derate factor applied to D0(p) by the coarse RDL layers;
     * rdlDefectDensityPerCm2(p) == rdlDefectDerate() * D0(p). Batch
     * evaluators hoist the factor so scaled D0 tables stay bit-
     * identical to per-trial table rebuilds.
     */
    double rdlDefectDerate() const { return rdlDefectDerate_; }

    /** Derate factor applied to D0(p) by interposer BEOL layers. */
    double interposerDefectDerate() const
    {
        return interposerDefectDerate_;
    }

    /** Nominal supply voltage Vdd(p) in volts. */
    double supplyVoltageV(double node_nm) const;

    /** Effective switched capacitance per transistor, fF. */
    double effCapFfPerTransistor(double node_nm) const;

    /** Leakage current per million transistors, mA. */
    double leakageMaPerMtr(double node_nm) const;

    /** 300 mm-equivalent processed wafer cost in USD. */
    double waferCostUsd(double node_nm) const;

    /** Photomask-set NRE cost in USD. */
    double maskSetCostUsd(double node_nm) const;

    /**
     * Energy to manufacture one full photomask set (e-beam write,
     * inspection, repair) in kWh -- the NRE manufacturing-carbon
     * extension of Sec. V-C.
     */
    double maskSetEnergyKwh(double node_nm) const;

    /** @{ @name Calibration overrides */
    void setDefectDensityTable(PiecewiseLinear table);
    void setClusteringAlpha(double alpha);
    void setTransistorDensityTable(DesignType type,
                                   PiecewiseLinear table);
    void setEpaTable(PiecewiseLinear table);
    /** @} */

  private:
    const PiecewiseLinear &densityTable(DesignType type) const;

    PiecewiseLinear defectDensity_;
    double clusteringAlpha_;
    PiecewiseLinear densityLogic_;
    PiecewiseLinear densityMemory_;
    PiecewiseLinear densityAnalog_;
    PiecewiseLinear epa_;
    PiecewiseLinear cgas_;
    double cmaterialKgPerCm2_;
    PiecewiseLinear equipmentDerate_;
    PiecewiseLinear edaProductivity_;
    PiecewiseLinear eplaRdl_;
    PiecewiseLinear eplaBridge_;
    PiecewiseLinear eplaInterposer_;
    PiecewiseLinear energyPerTsv_;
    PiecewiseLinear supplyVoltage_;
    PiecewiseLinear effCap_;
    PiecewiseLinear leakage_;
    PiecewiseLinear waferCost_;
    PiecewiseLinear maskSetCost_;
    PiecewiseLinear maskSetEnergy_;
    double rdlDefectDerate_;
    double interposerDefectDerate_;
};

} // namespace ecochip

#endif // ECOCHIP_TECH_TECH_DB_H
