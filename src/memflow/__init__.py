"""memflow: pseudo-spectral 2D incompressible viscoelastic flow with
fading-memory integral constitutive laws, instrumented so that every
machine-checkable a priori bound runs as a falsifiable diagnostic."""

__version__ = "0.1.0"
