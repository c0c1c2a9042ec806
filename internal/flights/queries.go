package flights

import "fastframe/internal/query"

// This file expresses the paper's nine Flights queries (Figure 5) with
// the stopping conditions of Table 4.

// Q1 is F-q1: average delay for one airport, stopped at relative error ε
// (condition ③).
//
//	SELECT AVG(DepDelay) FROM flights WHERE Origin = $airport
func Q1(airport string, eps float64) query.Query {
	return query.Query{
		Name: "F-q1",
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: ColDepDelay}},
		Pred: query.Predicate{}.AndCatIn(ColOrigin, airport),
		Stop: query.RelWidth(eps),
	}
}

// Q2 is F-q2: airlines with average delay above a threshold
// (condition ④).
//
//	SELECT Airline FROM flights GROUP BY Airline
//	HAVING AVG(DepDelay) > $thresh
func Q2(thresh float64) query.Query {
	return query.Query{
		Name:    "F-q2",
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: ColDepDelay}},
		GroupBy: []string{ColAirline},
		Stop:    query.Threshold(thresh),
	}
}

// Q3 is F-q3: the two airlines with minimum average delay after a
// departure time (bottom-2 separated, condition ⑤).
//
//	SELECT Airline FROM flights WHERE DepTime > $min_dep_time
//	GROUP BY Airline ORDER BY AVG(DepDelay) ASC LIMIT 2
func Q3(minDepTime float64) query.Query {
	return query.Query{
		Name:    "F-q3",
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: ColDepDelay}},
		Pred:    query.Predicate{}.AndGreater(ColDepTime, minDepTime),
		GroupBy: []string{ColAirline},
		Stop:    query.BottomK(2),
	}
}

// Q4 is F-q4: whether ORD's average delay exceeds 10 (condition ④).
//
//	SELECT (CASE WHEN AVG(DepDelay) > 10 THEN 1 ELSE 0 END)
//	FROM flights WHERE Origin = 'ORD'
func Q4() query.Query {
	return query.Query{
		Name: "F-q4",
		Aggs: []query.Aggregate{{Kind: query.Avg, Column: ColDepDelay}},
		Pred: query.Predicate{}.AndCatIn(ColOrigin, "ORD"),
		Stop: query.Threshold(10),
	}
}

// Q5 is F-q5: airports with negative average delay (condition ④).
//
//	SELECT Origin FROM flights GROUP BY Origin
//	HAVING AVG(DepDelay) < 0
func Q5() query.Query {
	return query.Query{
		Name:    "F-q5",
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: ColDepDelay}},
		GroupBy: []string{ColOrigin},
		Stop:    query.Threshold(0),
	}
}

// Q6 is F-q6: the five worst (day, airport) pairs for afternoon delays
// (top-5 separated, condition ⑤). 1:50pm is HHMM 1350.
//
//	SELECT DayOfWeek, Origin FROM flights WHERE DepTime > 1:50pm
//	GROUP BY DayOfWeek, Origin ORDER BY AVG(DepDelay) DESC LIMIT 5
func Q6() query.Query {
	return query.Query{
		Name:    "F-q6",
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: ColDepDelay}},
		Pred:    query.Predicate{}.AndGreater(ColDepTime, 1350),
		GroupBy: []string{ColDayOfWeek, ColOrigin},
		Stop:    query.TopK(5),
	}
}

// Q7 is F-q7: average delay by day of week for airline HP, with all
// seven groups correctly ordered (condition ⑥).
//
//	SELECT DayOfWeek, AVG(DepDelay) FROM flights
//	WHERE Airline = 'HP' GROUP BY DayOfWeek
func Q7() query.Query {
	return query.Query{
		Name:    "F-q7",
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: ColDepDelay}},
		Pred:    query.Predicate{}.AndCatIn(ColAirline, "HP"),
		GroupBy: []string{ColDayOfWeek},
		Stop:    query.Ordered(),
	}
}

// Q8 is F-q8: the origin airport with the highest average delay (top-1
// separated, condition ⑤).
//
//	SELECT Origin FROM flights GROUP BY Origin
//	ORDER BY AVG(DepDelay) DESC LIMIT 1
func Q8() query.Query {
	return query.Query{
		Name:    "F-q8",
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: ColDepDelay}},
		GroupBy: []string{ColOrigin},
		Stop:    query.TopK(1),
	}
}

// Q9 is F-q9: the airline with the maximum average delay (top-1
// separated, condition ⑤).
//
//	SELECT Airline FROM flights GROUP BY Airline
//	ORDER BY AVG(DepDelay) DESC LIMIT 1
func Q9() query.Query {
	return query.Query{
		Name:    "F-q9",
		Aggs:    []query.Aggregate{{Kind: query.Avg, Column: ColDepDelay}},
		GroupBy: []string{ColAirline},
		Stop:    query.TopK(1),
	}
}

// DefaultQueries returns the nine queries with the default parameters
// used in the paper's Table 5: F-q1[ORD, ε=.5], F-q2[thresh=0],
// F-q3[10:50pm].
func DefaultQueries() []query.Query {
	return []query.Query{
		Q1("ORD", 0.5),
		Q2(0),
		Q3(2250),
		Q4(),
		Q5(),
		Q6(),
		Q7(),
		Q8(),
		Q9(),
	}
}
