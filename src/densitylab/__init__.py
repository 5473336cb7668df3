"""densitylab: finite-scale experiments with logarithmic and Banach
densities, harmonic window measures, approximate progression searches, and
productset gap analysis.

The exports below are imported from their modules on first access (PEP 562),
so ``import densitylab`` loads no submodule and no numpy."""

from importlib import import_module

_EXPORTS = {
    "density": "DensityProfile banach_window_sup bd_estimate bdm_window_sup counting_profile lbd_estimate log_profile",
    "errors": "CapacityError DensityLabError DomainError ValidationError",
    "intset": "IntegerSetSpec IntervalSet Window classify contains example2_set invert_intervals materialize",
    "monad": "RatioCut WindowMeasureReport big_estimate density_plus equivalent interval_measure inversion_check "
             "invert_point monad_of nu nu_m phi root_shift scale_check",
    "productset": "GapReport gap_witness max_gap_ratio products_in",
    "progressions": "ApproxWitness GeoProgression PowerProgression approx_subset find_geo find_gp3 find_power_ap "
                    "gp_free_certify is_n_approx",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
