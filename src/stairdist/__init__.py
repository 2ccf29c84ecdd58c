"""Distances and rectangle approximations for 2-parameter interval modules."""

from .errors import (ParseError, PreconditionError, StairdistError,
                     ValidationError)
from .geometry import (DiagBand, Point2, RectangleSpec, SliceSegment,
                       StaircaseInterval, band, hausdorff, point,
                       validate_interval)
from .interleaving import (di_decision, di_interval, di_interval_vs_rect,
                           triv_distance)
from .rect_approx import (RectApproxResult, approx_decomposable,
                          band_partition, construction1, diam_tables,
                          optimal_rectangle)
from .bottleneck import (CostProfile, MatchingResult, bottleneck_distance,
                         delta_matched, interleaving_lower_bound,
                         pairwise_costs)
from .gmd import (AnchorCovering, GradedMatrix, HalfOpenInterval, anchors,
                  diagonalize, dmatch_sampled, gmd, push_band, refine_alpha,
                  scale_presentation, validate_presentation)

__version__ = "0.1.0"
