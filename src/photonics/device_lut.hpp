// Compiled device-model lookup tables.
//
// The device physics only ever sees 255 discrete GST levels, so the
// transfer functions the weight bank needs — GST level → transmittance and
// the MRR/balanced-photodetector read-out of a programmed ring — can be
// evaluated ONCE per level at compile time and served from a table
// afterwards.  The builders below walk the same device models the
// functional simulation uses (GstCell, Mrr::response), so every table
// entry is bit-identical to what the per-ring simulation would have
// computed; the tests pin the MRR table against WeightBank's
// self-calibration sweep.
#pragma once

#include <vector>

#include "common/units.hpp"
#include "photonics/gst.hpp"
#include "photonics/mrr.hpp"

namespace trident::phot {

/// GST level → transmittance, both intensity (power) and amplitude (field)
/// flavours.  Index = programmed level, 0 = fully crystalline.
struct GstTransmissionLut {
  std::vector<double> intensity;
  std::vector<double> amplitude;

  [[nodiscard]] int levels() const {
    return static_cast<int>(intensity.size());
  }
};

[[nodiscard]] GstTransmissionLut build_gst_transmission_lut(
    const GstCellParams& params = {});

/// GST level → realised weight of one add-drop ring read on resonance by
/// the balanced photodetector (drop − through), plus the normalisation
/// that maps the achievable raw range onto [-1, 1].  This is WeightBank's
/// construction-time calibration sweep as a standalone, bank-free table.
struct MrrWeightLut {
  std::vector<double> raw;     ///< level → drop − through at resonance
  std::vector<double> weight;  ///< level → normalised weight in [-1, 1]
  double raw_min = 0.0;
  double raw_max = 0.0;
  double scale = 1.0;  ///< (raw_max − raw_min) / 2: WeightBank::weight_scale

  [[nodiscard]] int levels() const { return static_cast<int>(raw.size()); }

  /// Calibrated level whose realised weight is nearest `target` ∈ [-1, 1]
  /// (the nearest-level search hardware programming performs).
  [[nodiscard]] int nearest_level(double target) const;
};

[[nodiscard]] MrrWeightLut build_mrr_weight_lut(const MrrDesign& design,
                                                units::Length resonance,
                                                const GstCellParams& gst = {});

}  // namespace trident::phot
