#include "wafer/wafer_model.h"

#include <cmath>
#include <limits>
#include <numbers>

#include "json/json.h"
#include "support/error.h"

namespace ecochip {

WaferModel::WaferModel(double diameter_mm)
    : diameterMm_(diameter_mm)
{
    requireConfig(diameter_mm > 0.0,
                  "wafer diameter must be positive");
}

double
WaferModel::areaMm2() const
{
    const double r = diameterMm_ / 2.0;
    return std::numbers::pi * r * r;
}

long
WaferModel::diesPerWafer(double die_area_mm2) const
{
    requireConfig(die_area_mm2 > 0.0, "die area must be positive");
    const double side_mm = std::sqrt(die_area_mm2);
    const double usable_radius_mm =
        diameterMm_ / 2.0 - side_mm / std::numbers::sqrt2;
    if (usable_radius_mm <= 0.0)
        return 0;
    const double usable_area_mm2 =
        std::numbers::pi * usable_radius_mm * usable_radius_mm;
    const double dies = std::floor(usable_area_mm2 / die_area_mm2);
    // The cast is undefined from 2^63 up (or on inf).
    if (!(dies < std::ldexp(1.0, std::numeric_limits<long>::digits)))
        throw ConfigError("die of " + json::formatNumber(die_area_mm2) +
                          " mm^2 is too small: its dies-per-wafer "
                          "count does not fit in a long");
    return static_cast<long>(dies);
}

double
WaferModel::wastedAreaPerDieMm2(double die_area_mm2) const
{
    const long dpw = diesPerWafer(die_area_mm2);
    requireConfig(dpw > 0, "die does not fit on the wafer");
    return (areaMm2() - static_cast<double>(dpw) * die_area_mm2) /
           static_cast<double>(dpw);
}

double
WaferModel::utilization(double die_area_mm2) const
{
    const long dpw = diesPerWafer(die_area_mm2);
    if (dpw <= 0)
        return 0.0;
    return static_cast<double>(dpw) * die_area_mm2 / areaMm2();
}

} // namespace ecochip
