#ifndef STMAKER_IO_GEOJSON_H_
#define STMAKER_IO_GEOJSON_H_

/// \file
/// GeoJSON export of summaries for map visualization.

#include <string>

#include "core/summary.h"
#include "geo/projection.h"
#include "landmark/landmark_index.h"

namespace stmaker {

/// \brief GeoJSON export for map visualization (geojson.io, Leaflet, QGIS).
///
/// Coordinates are converted from the local plane back to WGS-84 with the
/// supplied projection.

/// A summary as a FeatureCollection: one Point per partition-boundary
/// landmark (name, significance, and the partition sentence on the source
/// point) plus one LineString per partition drawn through its landmark
/// chain, carrying the sentence and the selected feature ids.
std::string SummaryToGeoJson(const Summary& summary,
                             const LandmarkIndex& landmarks,
                             const LocalProjection& projection);

}  // namespace stmaker

#endif  // STMAKER_IO_GEOJSON_H_
