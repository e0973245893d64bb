/**
 * @file
 * Wafer geometry: dies per wafer and amortized silicon wastage
 * (paper Eqs. 7-8, Fig. 3).
 */

#ifndef ECOCHIP_WAFER_WAFER_MODEL_H
#define ECOCHIP_WAFER_WAFER_MODEL_H

namespace ecochip {

/**
 * A circular wafer of a given diameter.
 *
 * The die cannot occupy zones within its half-diagonal of the wafer
 * edge, reducing the usable diameter by Ld / sqrt(2) on each side
 * (Eq. 7). Everything outside the extracted dies is wasted and
 * amortized per die (Eq. 8).
 */
class WaferModel
{
  public:
    /** Default wafer diameter used in the paper's results (mm). */
    static constexpr double kDefaultDiameterMm = 450.0;

    /**
     * @param diameter_mm Wafer diameter in mm (Table I: 25 - 450).
     */
    explicit WaferModel(double diameter_mm = kDefaultDiameterMm);

    /** Wafer diameter in mm. */
    double diameterMm() const { return diameterMm_; }

    /** Total wafer area in mm^2. */
    double areaMm2() const;

    /**
     * Dies per wafer (Eq. 7):
     *   DPW = floor(pi * (D/2 - Ld/sqrt(2))^2 / Adie)
     * where Ld = sqrt(Adie) for a square die.
     *
     * @param die_area_mm2 Die area in mm^2.
     * @return Whole dies extracted per wafer (0 when the die cannot
     *         fit).
     * @throws ConfigError when the count does not fit in a long
     *         (a vanishingly small die).
     */
    long diesPerWafer(double die_area_mm2) const;

    /**
     * Amortized wasted silicon per die (Eq. 8):
     *   Awasted = (Awafer - DPW * Adie) / DPW
     *
     * @param die_area_mm2 Die area in mm^2.
     * @return Wasted area per die in mm^2.
     * @throws ConfigError when no die fits the wafer.
     */
    double wastedAreaPerDieMm2(double die_area_mm2) const;

    /** Fraction of the wafer area that becomes product dies. */
    double utilization(double die_area_mm2) const;

  private:
    double diameterMm_;
};

} // namespace ecochip

#endif // ECOCHIP_WAFER_WAFER_MODEL_H
