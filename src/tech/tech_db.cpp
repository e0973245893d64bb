#include "tech/tech_db.h"

#include "support/error.h"

namespace ecochip {

const std::shared_ptr<const TechDb> &
TechDb::defaults()
{
    static const std::shared_ptr<const TechDb> tech =
        std::make_shared<const TechDb>();
    return tech;
}

const std::vector<double> &
TechDb::standardNodesNm()
{
    static const std::vector<double> nodes = {
        3.0, 5.0, 7.0, 10.0, 14.0, 22.0, 28.0, 40.0, 65.0};
    return nodes;
}

TechDb::TechDb()
    // Defect density D0(p): Table I range 0.07 - 0.3 /cm^2; legacy
    // nodes have matured to lower defectivity (Fig. 6(a)).
    : defectDensity_({{3.0, 0.30}, {5.0, 0.25}, {7.0, 0.20},
                      {10.0, 0.15}, {14.0, 0.12}, {22.0, 0.10},
                      {28.0, 0.09}, {40.0, 0.08}, {65.0, 0.07}}),
      clusteringAlpha_(3.0),
      // Transistor density curves (MTr/mm^2). Logic rides the full
      // scaling curve; SRAM flattens at advanced nodes; analog
      // barely scales (Sec. II-A(2)).
      densityLogic_({{3.0, 150.0}, {5.0, 127.0}, {7.0, 91.0},
                     {10.0, 52.0}, {14.0, 29.0}, {22.0, 16.0},
                     {28.0, 11.0}, {40.0, 7.5}, {65.0, 5.0}}),
      densityMemory_({{3.0, 105.0}, {5.0, 98.0}, {7.0, 85.0},
                      {10.0, 70.0}, {14.0, 64.0}, {22.0, 33.0},
                      {28.0, 24.0}, {40.0, 15.0}, {65.0, 10.0}}),
      densityAnalog_({{3.0, 9.7}, {5.0, 9.5}, {7.0, 9.0},
                      {10.0, 8.5}, {14.0, 7.0}, {22.0, 6.5},
                      {28.0, 6.0}, {40.0, 5.2}, {65.0, 4.5}}),
      // Manufacturing energy per area (kWh/cm^2): EUV-heavy
      // advanced nodes cost the most (Table I: 0.8 - 3.5).
      epa_({{3.0, 3.5}, {5.0, 3.0}, {7.0, 2.6}, {10.0, 2.1},
            {14.0, 1.8}, {22.0, 1.4}, {28.0, 1.2}, {40.0, 1.0},
            {65.0, 0.8}}),
      // Direct process GHG emissions (kg CO2/cm^2): 0.1 - 0.5.
      cgas_({{3.0, 0.50}, {5.0, 0.42}, {7.0, 0.35}, {10.0, 0.28},
             {14.0, 0.22}, {22.0, 0.18}, {28.0, 0.15}, {40.0, 0.12},
             {65.0, 0.10}}),
      cmaterialKgPerCm2_(0.5),
      // Equipment-efficiency derate eta_eq(p): mature nodes run on
      // the latest, most efficient litho equipment (Sec. III-C(3)).
      equipmentDerate_({{3.0, 1.0}, {5.0, 0.975}, {7.0, 0.95},
                        {10.0, 0.90}, {14.0, 0.875}, {22.0, 0.85},
                        {28.0, 0.825}, {40.0, 0.80}, {65.0, 0.75}}),
      // EDA productivity eta_EDA(p): latest tools finish a design
      // fastest on mature nodes (Sec. II-A(2), Sec. III-E).
      edaProductivity_({{3.0, 0.40}, {5.0, 0.45}, {7.0, 0.55},
                        {10.0, 0.65}, {14.0, 0.75}, {22.0, 0.85},
                        {28.0, 0.90}, {40.0, 0.95}, {65.0, 1.0}}),
      // Packaging energy-per-layer-per-area tables
      // (kWh/cm^2/layer). RDL is coarse (6/6 - 10/10 um L/S);
      // bridges are ultra-fine (2 um L/S) lower-metal patterning;
      // interposer BEOL sits in between (Table I ranges).
      eplaRdl_({{22.0, 0.20}, {28.0, 0.17}, {40.0, 0.12},
                {65.0, 0.05}}),
      eplaBridge_({{22.0, 0.35}, {28.0, 0.30}, {40.0, 0.22},
                   {65.0, 0.10}}),
      eplaInterposer_({{22.0, 0.30}, {28.0, 0.25}, {40.0, 0.18},
                       {65.0, 0.08}}),
      // Energy per TSV / microbump / hybrid-bond connection (kWh).
      // Via etch + fill + reveal dominates; finer nodes pay more
      // per connection.
      energyPerTsv_({{22.0, 1.2e-5}, {28.0, 1.0e-5}, {40.0, 7.5e-6},
                     {65.0, 5.0e-6}}),
      // Operating-point tables for the operational-CFP model.
      supplyVoltage_({{3.0, 0.65}, {5.0, 0.70}, {7.0, 0.75},
                      {10.0, 0.80}, {14.0, 0.85}, {22.0, 0.90},
                      {28.0, 1.00}, {40.0, 1.10}, {65.0, 1.20}}),
      effCap_({{3.0, 0.040}, {5.0, 0.048}, {7.0, 0.059},
               {10.0, 0.075}, {14.0, 0.100}, {22.0, 0.140},
               {28.0, 0.180}, {40.0, 0.250}, {65.0, 0.350}}),
      leakage_({{3.0, 1.00}, {5.0, 0.80}, {7.0, 0.62}, {10.0, 0.50},
                {14.0, 0.40}, {22.0, 0.30}, {28.0, 0.25},
                {40.0, 0.20}, {65.0, 0.15}}),
      // Processed-wafer and mask-set costs (USD) for the dollar
      // cost model (Sec. VI(2)).
      waferCost_({{3.0, 20000.0}, {5.0, 17000.0}, {7.0, 9300.0},
                  {10.0, 6000.0}, {14.0, 5000.0}, {22.0, 3500.0},
                  {28.0, 3000.0}, {40.0, 2600.0}, {65.0, 2000.0}}),
      maskSetCost_({{3.0, 2.0e7}, {5.0, 1.6e7}, {7.0, 1.0e7},
                    {10.0, 6.0e6}, {14.0, 4.0e6}, {22.0, 2.0e6},
                    {28.0, 1.5e6}, {40.0, 1.0e6}, {65.0, 5.0e5}}),
      // Mask-set manufacturing energy (kWh): more layers and far
      // longer e-beam write times at advanced nodes.
      maskSetEnergy_({{3.0, 3.5e4}, {5.0, 2.8e4}, {7.0, 2.0e4},
                      {10.0, 1.4e4}, {14.0, 1.0e4}, {22.0, 6.0e3},
                      {28.0, 4.5e3}, {40.0, 3.0e3},
                      {65.0, 2.0e3}}),
      // Coarse RDL features tolerate most defects; fine bridge
      // layers see full silicon defectivity.
      rdlDefectDerate_(0.2),
      interposerDefectDerate_(0.5)
{
}

double
TechDb::defectDensityPerCm2(double node_nm) const
{
    requireConfig(node_nm > 0.0, "node must be positive");
    return defectDensity_.eval(node_nm);
}

const PiecewiseLinear &
TechDb::densityTable(DesignType type) const
{
    switch (type) {
      case DesignType::Logic: return densityLogic_;
      case DesignType::Memory: return densityMemory_;
      case DesignType::Analog: return densityAnalog_;
    }
    throw ModelError("unhandled design type");
}

double
TechDb::transistorDensityMtrPerMm2(DesignType type,
                                   double node_nm) const
{
    requireConfig(node_nm > 0.0, "node must be positive");
    return densityTable(type).eval(node_nm);
}

double
TechDb::dieAreaMm2(DesignType type, double node_nm,
                   double transistors_mtr) const
{
    requireConfig(transistors_mtr >= 0.0,
                  "transistor count must be non-negative");
    return transistors_mtr /
           transistorDensityMtrPerMm2(type, node_nm);
}

double
TechDb::transistorsMtr(DesignType type, double node_nm,
                       double area_mm2) const
{
    requireConfig(area_mm2 >= 0.0, "area must be non-negative");
    return area_mm2 * transistorDensityMtrPerMm2(type, node_nm);
}

double
TechDb::epaKwhPerCm2(double node_nm) const
{
    return epa_.eval(node_nm);
}

double
TechDb::cgasKgPerCm2(double node_nm) const
{
    return cgas_.eval(node_nm);
}

double
TechDb::cmaterialKgPerCm2(double) const
{
    return cmaterialKgPerCm2_;
}

double
TechDb::cfpaSiKgPerCm2(double node_nm) const
{
    // Wasted periphery silicon is fully processed wafer area that
    // yields no dies: it carries the material footprint plus the
    // blanket (non-patterning) share of fab energy, taken as 30% of
    // EPA.
    return cmaterialKgPerCm2_ + 0.3 * cgas_.eval(node_nm);
}

double
TechDb::equipmentDerate(double node_nm) const
{
    return equipmentDerate_.eval(node_nm);
}

double
TechDb::edaProductivity(double node_nm) const
{
    return edaProductivity_.eval(node_nm);
}

std::vector<std::pair<double, double>>
TechDb::edaProductivitySamples() const
{
    std::vector<std::pair<double, double>> samples;
    for (double node : standardNodesNm())
        samples.emplace_back(node, edaProductivity_.eval(node));
    return samples;
}

double
TechDb::eplaRdlKwhPerCm2(double node_nm) const
{
    return eplaRdl_.eval(node_nm);
}

double
TechDb::eplaBridgeKwhPerCm2(double node_nm) const
{
    return eplaBridge_.eval(node_nm);
}

double
TechDb::eplaInterposerKwhPerCm2(double node_nm) const
{
    return eplaInterposer_.eval(node_nm);
}

double
TechDb::energyPerTsvKwh(double node_nm) const
{
    return energyPerTsv_.eval(node_nm);
}

double
TechDb::rdlDefectDensityPerCm2(double node_nm) const
{
    return rdlDefectDerate_ * defectDensityPerCm2(node_nm);
}

double
TechDb::bridgeDefectDensityPerCm2(double node_nm) const
{
    return defectDensityPerCm2(node_nm);
}

double
TechDb::interposerDefectDensityPerCm2(double node_nm) const
{
    return interposerDefectDerate_ * defectDensityPerCm2(node_nm);
}

double
TechDb::supplyVoltageV(double node_nm) const
{
    return supplyVoltage_.eval(node_nm);
}

double
TechDb::effCapFfPerTransistor(double node_nm) const
{
    return effCap_.eval(node_nm);
}

double
TechDb::leakageMaPerMtr(double node_nm) const
{
    return leakage_.eval(node_nm);
}

double
TechDb::waferCostUsd(double node_nm) const
{
    return waferCost_.eval(node_nm);
}

double
TechDb::maskSetCostUsd(double node_nm) const
{
    return maskSetCost_.eval(node_nm);
}

double
TechDb::maskSetEnergyKwh(double node_nm) const
{
    return maskSetEnergy_.eval(node_nm);
}

void
TechDb::setDefectDensityTable(PiecewiseLinear table)
{
    requireConfig(!table.empty(), "defect density table is empty");
    defectDensity_ = std::move(table);
}

void
TechDb::setClusteringAlpha(double alpha)
{
    requireConfig(alpha > 0.0, "clustering alpha must be positive");
    clusteringAlpha_ = alpha;
}

void
TechDb::setTransistorDensityTable(DesignType type,
                                  PiecewiseLinear table)
{
    requireConfig(!table.empty(), "density table is empty");
    switch (type) {
      case DesignType::Logic:
        densityLogic_ = std::move(table);
        return;
      case DesignType::Memory:
        densityMemory_ = std::move(table);
        return;
      case DesignType::Analog:
        densityAnalog_ = std::move(table);
        return;
    }
    throw ModelError("unhandled design type");
}

void
TechDb::setEpaTable(PiecewiseLinear table)
{
    requireConfig(!table.empty(), "EPA table is empty");
    epa_ = std::move(table);
}

} // namespace ecochip
