"""Setup shim for environments without the `wheel` package (legacy editable installs)."""
from setuptools import find_packages, setup

setup(
    name="repro-routing",
    description="Reproduction of compact routing schemes (Roditty-Tov, PODC'15)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
    extras_require={
        # the static gate (scripts/check.sh) degrades gracefully when
        # these are absent — install them to run the full recipe
        "dev": [
            "mypy>=1.8",
            "ruff>=0.4",
            "pytest>=7",
        ],
    },
)
