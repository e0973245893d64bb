#include "io/result_writer.h"

#include <sstream>

#include "io/config_loader.h"
#include "support/table_printer.h"

namespace ecochip {

namespace {

std::string
num(double value, int precision = 3)
{
    return TablePrinter::formatNumber(value, precision);
}

void
appendExplorationPoint(json::StreamWriter &writer,
                       const ExplorationPoint &point)
{
    writer.beginObject();
    writer.key("label");
    writer.string(point.label());
    writer.key("nodes_nm");
    writer.beginArray();
    for (double node : point.nodesNm)
        writer.number(node);
    writer.endArray();
    writer.key("mfg_co2_kg");
    writer.number(point.report.mfgCo2Kg);
    writer.key("hi_co2_kg");
    writer.number(point.report.hi.totalCo2Kg());
    writer.key("design_co2_kg");
    writer.number(point.report.designCo2Kg);
    writer.key("embodied_co2_kg");
    writer.number(point.report.embodiedCo2Kg());
    writer.key("operational_co2_kg");
    writer.number(point.report.operation.co2Kg);
    writer.key("total_co2_kg");
    writer.number(point.report.totalCo2Kg());
    writer.endObject();
}

void
appendSensitivityRow(json::StreamWriter &writer,
                     const SensitivityResult &row)
{
    writer.beginObject();
    writer.key("name");
    writer.string(row.name);
    writer.key("low");
    writer.number(row.lowValue);
    writer.key("base");
    writer.number(row.baseValue);
    writer.key("high");
    writer.number(row.highValue);
    writer.key("elasticity");
    writer.number(row.elasticity);
    writer.endObject();
}

void
appendCost(json::StreamWriter &writer, const CostBreakdown &cost)
{
    writer.beginObject();
    writer.key("die_usd");
    writer.number(cost.dieUsd);
    writer.key("package_usd");
    writer.number(cost.packageUsd);
    writer.key("assembly_usd");
    writer.number(cost.assemblyUsd);
    writer.key("nre_usd");
    writer.number(cost.nreUsd);
    writer.key("total_usd");
    writer.number(cost.totalUsd());
    writer.endObject();
}

} // namespace

void
appendSampleStats(json::StreamWriter &writer,
                  const SampleStats &stats)
{
    writer.beginObject();
    writer.key("count");
    writer.number(static_cast<double>(stats.count()));
    writer.key("mean");
    writer.number(stats.mean());
    writer.key("stddev");
    writer.number(stats.stddev());
    writer.key("min");
    writer.number(stats.min());
    writer.key("p5");
    writer.number(stats.percentile(5.0));
    writer.key("p50");
    writer.number(stats.percentile(50.0));
    writer.key("p95");
    writer.number(stats.percentile(95.0));
    writer.key("max");
    writer.number(stats.max());
    writer.endObject();
}

void
appendResult(json::StreamWriter &writer,
             const AnalysisResult &result)
{
    writer.beginObject();
    writer.key("kind");
    writer.string(toString(result.kind));
    writer.key("scenario");
    writer.string(result.scenario);
    writer.key("detail");
    writer.string(result.detail);

    switch (result.kind) {
      case AnalysisKind::Estimate:
        if (result.report) {
            writer.key("report");
            appendReport(writer, *result.report);
        }
        break;
      case AnalysisKind::Sweep:
        writer.key("sweep");
        writer.beginArray();
        for (const auto &point : result.points)
            appendExplorationPoint(writer, point);
        writer.endArray();
        if (!result.points.empty()) {
            writer.key("best_embodied");
            writer.string(TechSpaceExplorer::bestByEmbodied(
                              result.points)
                              .label());
            writer.key("best_total");
            writer.string(
                TechSpaceExplorer::bestByTotal(result.points)
                    .label());
        }
        break;
      case AnalysisKind::MonteCarlo:
        if (result.uncertainty) {
            writer.key("uncertainty");
            writer.beginObject();
            writer.key("trials");
            writer.number(static_cast<double>(result.trials));
            writer.key("seed");
            writer.number(static_cast<double>(result.seed));
            writer.key("embodied");
            appendSampleStats(writer,
                              result.uncertainty->embodied);
            writer.key("operational");
            appendSampleStats(writer,
                              result.uncertainty->operational);
            writer.key("total");
            appendSampleStats(writer, result.uncertainty->total);
            writer.endObject();
        }
        break;
      case AnalysisKind::Sensitivity:
        writer.key("sensitivity");
        writer.beginObject();
        writer.key("metric");
        writer.string(toString(result.metric));
        writer.key("rows");
        writer.beginArray();
        for (const auto &row : result.sensitivity)
            appendSensitivityRow(writer, row);
        writer.endArray();
        writer.endObject();
        break;
      case AnalysisKind::Cost:
        if (result.cost) {
            writer.key("cost");
            appendCost(writer, *result.cost);
        }
        break;
    }
    writer.endObject();
}

namespace {

void
writeEstimateMarkdown(std::ostream &os,
                      const CarbonReport &report)
{
    os << "## Per-chiplet manufacturing\n\n";
    os << "| chiplet | node (nm) | area (mm^2) | yield | mfg (kg "
          "CO2) | design (kg CO2) |\n";
    os << "|---|---|---|---|---|---|\n";
    for (const auto &c : report.chiplets) {
        os << "| " << c.name << " | " << num(c.nodeNm, 0) << " | "
           << num(c.areaMm2) << " | " << num(c.yield) << " | "
           << num(c.mfgCo2Kg) << " | " << num(c.designCo2Kg)
           << " |\n";
    }

    os << "\n## Carbon breakdown (kg CO2 per part)\n\n";
    os << "| component | kg CO2 |\n|---|---|\n";
    os << "| manufacturing (Cmfg) | " << num(report.mfgCo2Kg)
       << " |\n";
    os << "| package (Cpackage) | "
       << num(report.hi.packageCo2Kg) << " |\n";
    os << "| inter-die comm (Cmfg,comm) | "
       << num(report.hi.routingCo2Kg) << " |\n";
    os << "| design, amortized (Cdes) | "
       << num(report.designCo2Kg) << " |\n";
    if (report.nreCo2Kg > 0.0)
        os << "| mask NRE, amortized | " << num(report.nreCo2Kg)
           << " |\n";
    os << "| **embodied (Cemb)** | "
       << num(report.embodiedCo2Kg()) << " |\n";
    os << "| operational (Cop x lifetime) | "
       << num(report.operation.co2Kg) << " |\n";
    os << "| **total (Ctot)** | " << num(report.totalCo2Kg())
       << " |\n";
}

void
writeSweepMarkdown(std::ostream &os,
                   const std::vector<ExplorationPoint> &points)
{
    os << "## Technology-space sweep\n\n";
    os << "| nodes | Cmfg (kg) | CHI (kg) | Cdes (kg) | Cemb (kg)"
          " | Cop (kg) | Ctot (kg) |\n";
    os << "|---|---|---|---|---|---|---|\n";
    for (const auto &p : points) {
        os << "| " << p.label() << " | " << num(p.report.mfgCo2Kg)
           << " | " << num(p.report.hi.totalCo2Kg()) << " | "
           << num(p.report.designCo2Kg) << " | "
           << num(p.report.embodiedCo2Kg()) << " | "
           << num(p.report.operation.co2Kg) << " | "
           << num(p.report.totalCo2Kg()) << " |\n";
    }
    if (!points.empty()) {
        const auto &best =
            TechSpaceExplorer::bestByEmbodied(points);
        os << "\nLowest embodied CFP: **" << best.label()
           << "** at " << num(best.report.embodiedCo2Kg())
           << " kg CO2\n";
    }
}

void
writeUncertaintyMarkdown(std::ostream &os,
                         const UncertaintyReport &bands)
{
    os << "## Monte-Carlo uncertainty (kg CO2)\n\n";
    os << "| metric | mean | stddev | p5 | p50 | p95 |\n";
    os << "|---|---|---|---|---|---|\n";
    auto row = [&](const char *name, const SampleStats &stats) {
        os << "| " << name << " | " << num(stats.mean()) << " | "
           << num(stats.stddev()) << " | "
           << num(stats.percentile(5.0)) << " | "
           << num(stats.percentile(50.0)) << " | "
           << num(stats.percentile(95.0)) << " |\n";
    };
    row("embodied", bands.embodied);
    row("operational", bands.operational);
    row("total", bands.total);
}

void
writeSensitivityMarkdown(
    std::ostream &os,
    const std::vector<SensitivityResult> &rows)
{
    os << "## Sensitivity\n\n";
    os << "| parameter | low | base | high | elasticity |\n";
    os << "|---|---|---|---|---|\n";
    for (const auto &row : rows) {
        os << "| " << row.name << " | " << num(row.lowValue)
           << " | " << num(row.baseValue) << " | "
           << num(row.highValue) << " | "
           << num(row.elasticity) << " |\n";
    }
}

void
writeCostMarkdown(std::ostream &os, const CostBreakdown &cost)
{
    os << "## Dollar cost per part\n\n";
    os << "| component | USD |\n|---|---|\n";
    os << "| silicon dies | " << num(cost.dieUsd) << " |\n";
    os << "| package | " << num(cost.packageUsd) << " |\n";
    os << "| assembly+test | " << num(cost.assemblyUsd) << " |\n";
    os << "| NRE, amortized | " << num(cost.nreUsd) << " |\n";
    os << "| **total** | " << num(cost.totalUsd()) << " |\n";
}

} // namespace

void
writeResultMarkdown(std::ostream &os, const AnalysisResult &result)
{
    os << "# ECO-CHIP " << toString(result.kind) << ": "
       << result.scenario << "\n\n";
    if (!result.detail.empty())
        os << "- " << result.detail << "\n\n";

    switch (result.kind) {
      case AnalysisKind::Estimate:
        if (result.report)
            writeEstimateMarkdown(os, *result.report);
        break;
      case AnalysisKind::Sweep:
        writeSweepMarkdown(os, result.points);
        break;
      case AnalysisKind::MonteCarlo:
        if (result.uncertainty)
            writeUncertaintyMarkdown(os, *result.uncertainty);
        break;
      case AnalysisKind::Sensitivity:
        writeSensitivityMarkdown(os, result.sensitivity);
        break;
      case AnalysisKind::Cost:
        if (result.cost)
            writeCostMarkdown(os, *result.cost);
        break;
    }
}

std::string
resultMarkdown(const AnalysisResult &result)
{
    std::ostringstream os;
    writeResultMarkdown(os, result);
    return os.str();
}

} // namespace ecochip
