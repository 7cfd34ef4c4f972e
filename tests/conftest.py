from hypothesis import settings

# one fixed set of examples for every run, local or CI, with no
# per-example deadline: some examples run a full quadrature
settings.register_profile("fracsmooth", derandomize=True, deadline=None)
settings.load_profile("fracsmooth")
