package dataset

import (
	"fmt"
	"math/rand"

	"repro/internal/stats"
)

// RankingConfig configures the simulated ranking datasets.
type RankingConfig struct {
	// Seed drives all sampling.
	Seed int64
}

// The paper's ranking dataset sizes (Sec. V-A).
const (
	xingQueries    = 57
	xingCandidates = 40
	airbnbQueries  = 43
)

// XingWeights are the score weights of Sec. V-A: the deserved score of a
// candidate is a weighted sum of work experience, education experience and
// number of profile views. Table IV sweeps these weights.
type XingWeights struct {
	Work, Education, Views float64
}

// UniformXingWeights matches the paper's default of uniform weights.
var UniformXingWeights = XingWeights{Work: 1, Education: 1, Views: 1}

// Xing simulates the paper's Xing job-portal dataset: 57 job-search
// queries with 40 candidate profiles each (Sec. V-A; 2240 usable profiles
// in the paper). Each candidate has work experience, education experience,
// profile views and a gender. Gender is the protected attribute; as in the
// motivating Table I, the qualification distributions overlap heavily
// across genders while views correlate mildly with gender (the visibility
// bias channel).
func Xing(w XingWeights, cfg RankingConfig) *Dataset {
	nq, perQ := xingQueries, xingCandidates
	rng := rand.New(rand.NewSource(cfg.Seed))

	categories := []string{"marketing", "engineering", "finance", "design", "sales", "hr"}
	seniorities := []string{"junior", "mid", "senior", "lead"}
	degrees := []string{"none", "apprenticeship", "bachelor", "master", "phd"}
	industries := []string{"software", "automotive", "retail", "media", "health", "public", "consulting", "banking"}
	locations := []string{"berlin", "hamburg", "munich", "cologne", "frankfurt", "stuttgart", "duesseldorf", "dortmund", "essen", "leipzig", "bremen", "dresden"}
	enc := Encoder{Specs: []FeatureSpec{
		{Name: "work_experience"},
		{Name: "education_experience"},
		{Name: "profile_views"},
		{Name: "job_category", Levels: categories},
		{Name: "seniority", Levels: seniorities},
		{Name: "degree", Levels: degrees},
		{Name: "industry", Levels: industries},
		{Name: "location", Levels: locations},
		{Name: "female", Protected: true},
	}}

	m := nq * perQ
	records := make([]Record, 0, m)
	protected := make([]bool, 0, m)
	quals := make([][]float64, 0, m) // work, education, views per record
	queries := make([]Query, 0, nq)

	for q := 0; q < nq; q++ {
		cat := categories[q%len(categories)]
		rows := make([]int, 0, perQ)
		for c := 0; c < perQ; c++ {
			idx := len(records)
			female := rng.Float64() < 0.35
			// Qualifications: same distribution for both genders — the
			// point of Table I is that individuals with near-identical
			// qualifications differ only on the protected attribute.
			work := rng.ExpFloat64() * 150
			if work > 520 {
				work = 520
			}
			edu := rng.Float64() * 110
			// Views carry mild gender bias (position/visibility bias).
			views := rng.ExpFloat64() * 400
			if female {
				views *= 0.8
			}

			prot := 0.0
			if female {
				prot = 1
			}
			// Seniority follows work experience; the remaining profile
			// attributes are descriptive detail (they push the encoded
			// dimensionality toward the paper's 59 columns).
			seniority := seniorities[0]
			switch {
			case work > 300:
				seniority = "lead"
			case work > 150:
				seniority = "senior"
			case work > 60:
				seniority = "mid"
			}
			degree := degrees[rng.Intn(len(degrees))]
			records = append(records, Record{
				Num: map[string]float64{
					"work_experience":      work,
					"education_experience": edu,
					"profile_views":        views,
					"female":               prot,
				},
				Cat: map[string]string{
					"job_category": cat,
					"seniority":    seniority,
					"degree":       degree,
					"industry":     industries[rng.Intn(len(industries))],
					"location":     locations[rng.Intn(len(locations))],
				},
			})
			protected = append(protected, female)
			quals = append(quals, []float64{work, edu, views})
			rows = append(rows, idx)
		}
		queries = append(queries, Query{Name: fmt.Sprintf("%s-q%02d", cat, q), Rows: rows})
	}

	x, protCols, names, err := enc.Encode(records)
	if err != nil {
		panic(fmt.Sprintf("dataset xing: %v", err))
	}

	// Deserved score: weighted sum of standardised qualifications
	// (Sec. V-A / Table IV).
	stats.Standardize(quals)
	score := make([]float64, m)
	for i, z := range quals {
		score[i] = w.Work*z[0] + w.Education*z[1] + w.Views*z[2]
	}

	return &Dataset{
		Name:          "xing",
		Task:          Ranking,
		X:             x,
		Score:         score,
		Protected:     protected,
		ProtectedCols: protCols,
		FeatureNames:  names,
		Queries:       queries,
	}
}

// Airbnb simulates the InsideAirbnb listings dataset of Sec. V-A: listings
// across five cities with categorical and numerical attributes, the host's
// (inferred) gender as the protected attribute and the rating as the
// ranking variable. Queries are built from (city, neighbourhood, home type)
// combinations and filtered to pools of at least 10 listings; the paper
// ends up with 43 queries.
func Airbnb(cfg RankingConfig) *Dataset {
	targetQueries := airbnbQueries
	rng := rand.New(rand.NewSource(cfg.Seed))

	cities := []string{"austin", "boston", "chicago", "denver", "seattle"}
	neighbourhoods := []string{"center", "north", "south", "west"}
	homeTypes := []string{"entire", "private", "shared"}
	cancellations := []string{"flexible", "moderate", "strict"}
	bedTypes := []string{"real_bed", "futon", "sofa", "airbed"}
	responses := []string{"within_hour", "within_day", "slow"}
	enc := Encoder{Specs: []FeatureSpec{
		{Name: "price"},
		{Name: "reviews"},
		{Name: "rating"},
		{Name: "amenities"},
		{Name: "min_nights"},
		{Name: "city", Levels: cities},
		{Name: "neighbourhood", Levels: neighbourhoods},
		{Name: "home_type", Levels: homeTypes},
		{Name: "cancellation", Levels: cancellations},
		{Name: "bed_type", Levels: bedTypes},
		{Name: "response_time", Levels: responses},
		{Name: "host_female", Protected: true},
	}}

	// Generate pools per (city, neighbourhood, type) until we have the
	// target number of queries with ≥ 10 listings.
	type poolKey struct{ city, nb, ht string }
	var keys []poolKey
	for _, c := range cities {
		for _, n := range neighbourhoods {
			for _, h := range homeTypes {
				keys = append(keys, poolKey{c, n, h})
			}
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if targetQueries > len(keys) {
		targetQueries = len(keys)
	}

	var records []Record
	var protected []bool
	var score []float64
	var queries []Query
	for q := 0; q < targetQueries; q++ {
		k := keys[q]
		poolSize := 10 + rng.Intn(40)
		rows := make([]int, 0, poolSize)
		for c := 0; c < poolSize; c++ {
			idx := len(records)
			female := rng.Float64() < 0.48
			price := 40 + rng.ExpFloat64()*80
			reviews := float64(poisson(rng, 25))
			rating := stats.Clamp(4.2+rng.NormFloat64()*0.5, 1, 5)
			amenities := float64(5 + rng.Intn(25))
			minNights := float64(1 + rng.Intn(6))
			// Leakage: listing style (amenities, price band) correlates
			// weakly with host gender.
			if female {
				amenities += 3
				price *= 0.95
			}
			prot := 0.0
			if female {
				prot = 1
			}
			records = append(records, Record{
				Num: map[string]float64{
					"price":       price,
					"reviews":     reviews,
					"rating":      rating,
					"amenities":   amenities,
					"min_nights":  minNights,
					"host_female": prot,
				},
				Cat: map[string]string{
					"city":          k.city,
					"neighbourhood": k.nb,
					"home_type":     k.ht,
					"cancellation":  cancellations[rng.Intn(len(cancellations))],
					"bed_type":      bedTypes[rng.Intn(len(bedTypes))],
					"response_time": responses[rng.Intn(len(responses))],
				},
			})
			protected = append(protected, female)
			// Ranking variable: rating adjusted by review volume.
			score = append(score, rating+0.01*reviews)
			rows = append(rows, idx)
		}
		queries = append(queries, Query{
			Name: fmt.Sprintf("%s/%s/%s", k.city, k.nb, k.ht),
			Rows: rows,
		})
	}

	x, protCols, names, err := enc.Encode(records)
	if err != nil {
		panic(fmt.Sprintf("dataset airbnb: %v", err))
	}
	return &Dataset{
		Name:          "airbnb",
		Task:          Ranking,
		X:             x,
		Score:         score,
		Protected:     protected,
		ProtectedCols: protCols,
		FeatureNames:  names,
		Queries:       queries,
	}
}
