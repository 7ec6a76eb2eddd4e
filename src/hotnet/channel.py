"""The one link constant outside ``association.link_budgets``, whose
records hold every other one (intercepts, exponents, Nakagami orders,
beam gains and LoS thinning).  Path loss is clamped at 1 m, so the power
law never exceeds its intercept."""

MIN_LINK_DISTANCE_M = 1.0
